/**
 * @file
 * Security audit scenario: take one firmware image, infer intermediate
 * taint sources with FITS, then run all four taint-analysis
 * configurations (Karonte / Karonte-ITS / STA / STA-ITS) and print a
 * vulnerability report — what a third-party analyst would do with a
 * vendor image and this library.
 */

#include <algorithm>
#include <cstdio>

#include "analysis/program_analysis.hh"
#include "core/behavior.hh"
#include "core/infer.hh"
#include "eval/harness.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

namespace {

using namespace fits;

void
printReport(const char *engine, const std::vector<taint::Alert> &alerts,
            const synth::GroundTruth &truth)
{
    std::size_t bugs = 0;
    for (const auto &alert : alerts) {
        const synth::SinkSite *site = truth.siteAt(alert.sinkSite);
        if (site != nullptr && site->isBug())
            ++bugs;
    }
    std::printf("%-12s %3zu alerts, %3zu verified bugs\n", engine,
                alerts.size(), bugs);
    for (const auto &alert : alerts) {
        const synth::SinkSite *site = truth.siteAt(alert.sinkSite);
        const bool isBug = site != nullptr && site->isBug();
        std::printf("    %s at %s in fn %s  [%s]%s\n",
                    alert.sinkName.c_str(),
                    support::hex(alert.sinkSite).c_str(),
                    support::hex(alert.inFunction).c_str(),
                    taint::vulnClassName(alert.vclass),
                    isBug ? "  <-- confirmed" : "");
        if (alerts.size() > 12 && &alert - alerts.data() >= 11) {
            std::printf("    ... (%zu more)\n",
                        alerts.size() - 12);
            break;
        }
    }
}

} // namespace

int
main()
{
    // A vendor ships an image; we only have the bytes.
    synth::SampleSpec spec;
    spec.profile = synth::ciscoProfile();
    spec.product = "RV130X";
    spec.version = "V1.0.3.55";
    spec.name = spec.product + "-" + spec.version;
    spec.seed = 0xc15c0;
    const synth::GeneratedFirmware firmware =
        synth::generateFirmware(spec);

    std::printf("=== auditing %s %s (%zu bytes) ===\n\n",
                spec.profile.vendor.c_str(), spec.name.c_str(),
                firmware.bytes.size());

    // Stage 1: unpack and pick the network-facing binary.
    auto unpacked = fw::unpackFirmware(firmware.bytes);
    if (!unpacked) {
        std::printf("unpack failed: %s\n",
                    unpacked.errorMessage().c_str());
        return 1;
    }
    auto target = fw::selectAnalysisTarget(unpacked.value().filesystem);
    if (!target) {
        std::printf("selection failed: %s\n",
                    target.errorMessage().c_str());
        return 1;
    }
    std::printf("network binary: %s (%zu functions), libraries: %zu\n",
                target.value().main->name.c_str(),
                target.value().main->program.size(),
                target.value().libraries.size());

    // Stage 2+3: one shared whole-program analysis; FITS ranking.
    const analysis::LinkedProgram linked(*target.value().main,
                                         target.value().libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const core::BehaviorAnalyzer analyzer;
    const auto behavior = analyzer.analyze(pa);
    const auto inference = core::inferIts(behavior);
    if (!inference.ok()) {
        std::printf("inference failed: %s\n",
                    inference.error.c_str());
        return 1;
    }

    std::printf("\nITS candidates (top 3):\n");
    std::vector<taint::TaintSource> its;
    for (std::size_t i = 0;
         i < 3 && i < inference.ranking.size(); ++i) {
        const auto &rf = inference.ranking[i];
        const bool verified =
            std::find(firmware.truth.itsFunctions.begin(),
                      firmware.truth.itsFunctions.end(),
                      rf.entry) != firmware.truth.itsFunctions.end();
        std::printf("  #%zu %s score %.4f — %s\n", i + 1,
                    support::hex(rf.entry).c_str(), rf.score,
                    verified ? "verified as ITS (taint origin: "
                               "return register)"
                             : "rejected during verification");
        if (verified) {
            its.push_back(taint::TaintSource::its(
                rf.entry, support::hex(rf.entry)));
        }
    }

    // Stage 4: taint analysis, the four Table-5 runs (CTS-only vs
    // CTS+ITS, per engine).
    std::printf("\n--- taint analysis ---\n");
    for (const eval::TaintRun &run : eval::kTaintRuns) {
        printReport(run.title,
                    eval::reportedAlerts(run,
                                         eval::runEngine(run, pa, its)),
                    firmware.truth);
    }

    std::printf("\nground truth: %zu planted bugs across %zu sink "
                "sites\n",
                firmware.truth.bugCount(),
                firmware.truth.sinkSites.size());
    return 0;
}
