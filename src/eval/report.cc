#include "eval/report.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "analysis/program_analysis.hh"
#include "cache/cache.hh"
#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "support/file.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits::eval {

namespace {

/** The *.fwimg files under `dir`, sorted, as specs named by file
 * name (their ground truth stays empty). Returns false with the exact
 * one-shot diagnostic in `error` when `dir` is missing, not a
 * directory, or unlistable. */
bool
listCorpusDir(const std::string &dir,
              std::vector<synth::SampleSpec> *specs, std::string *error)
{
    namespace fs = std::filesystem;

    std::error_code ec;
    const fs::file_status st = fs::status(dir, ec);
    if (ec || st.type() == fs::file_type::not_found) {
        *error = support::format("bad --dir %s: no such directory\n",
                                 dir.c_str());
        return false;
    }
    if (st.type() != fs::file_type::directory) {
        *error = support::format("bad --dir %s: not a directory\n",
                                 dir.c_str());
        return false;
    }

    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".fwimg")
            names.push_back(entry.path().filename().string());
    }
    if (ec) {
        *error = support::format("bad --dir %s: %s\n", dir.c_str(),
                                 ec.message().c_str());
        return false;
    }
    std::sort(names.begin(), names.end());
    for (auto &name : names) {
        synth::SampleSpec spec;
        spec.name = std::move(name);
        specs->push_back(std::move(spec));
    }
    return true;
}

} // namespace

CorpusReport
runCorpusReport(const CorpusOptions &options)
{
    CorpusReport report;

    std::vector<synth::SampleSpec> specs;
    CorpusRunner::Loader load = synth::generateFirmware;
    if (options.dir.empty()) {
        specs = synth::standardDataset();
    } else if (listCorpusDir(options.dir, &specs, &report.error)) {
        load = [dir = options.dir](const synth::SampleSpec &spec) {
            const std::string path =
                (std::filesystem::path(dir) / spec.name).string();
            auto bytes = support::readFile(path);
            if (!bytes)
                throw std::runtime_error("cannot read " + path);
            synth::GeneratedFirmware fw;
            fw.bytes = std::move(*bytes);
            return fw;
        };
    } else {
        return report;
    }
    if (specs.empty()) {
        report.error = support::format(
            "no corpus samples%s%s\n",
            options.dir.empty() ? "" : " under ",
            options.dir.c_str());
        return report;
    }

    CorpusRunner::Config config;
    config.jobs = options.jobs;
    const CorpusRunner runner(config);

    report.ok = true;
    report.samples = specs.size();
    report.jobs = runner.jobs();
    if (options.onHeader) {
        options.onHeader(support::format(
            "evaluating %zu samples with %zu worker threads...\n\n",
            specs.size(), runner.jobs()));
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = runner.run(specs, options.taint, load);
    report.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    // Per-vendor inference precision.
    TablePrinter table({"Vendor", "#FW", "Top-1", "Top-2", "Top-3"});
    PrecisionStats overall;
    for (const auto &profile : synth::vendorProfiles()) {
        PrecisionStats stats;
        for (const auto &outcome : outcomes) {
            if (outcome.spec.profile.vendor == profile.vendor)
                stats.addRank(outcome.ok() ? outcome.firstItsRank : -1);
        }
        overall.total += stats.total;
        overall.top1 += stats.top1;
        overall.top2 += stats.top2;
        overall.top3 += stats.top3;
        table.addRow({profile.vendor, std::to_string(stats.total),
                      percent(stats.p1()), percent(stats.p2()),
                      percent(stats.p3())});
    }
    table.addSeparator();
    table.addRow({"Overall", std::to_string(overall.total),
                  percent(overall.p1()), percent(overall.p2()),
                  percent(overall.p3())});
    report.text += table.render();

    if (options.taint) {
        EngineStats karonte, karonteIts, sta, staIts;
        int analyzed = 0;
        for (const auto &outcome : outcomes) {
            if (!outcome.taint)
                continue;
            ++analyzed;
            karonte += outcome.taint->karonte;
            karonteIts += outcome.taint->karonteIts;
            sta += outcome.taint->sta;
            staIts += outcome.taint->staIts;
        }
        report.text += support::format(
            "\ntaint engines (%d analyzable samples, one "
            "shared analysis per sample):\n",
            analyzed);
        TablePrinter engines(
            {"", "Karonte", "Karonte-ITS", "STA", "STA-ITS"});
        engines.addRow({"Alerts", std::to_string(karonte.alerts),
                        std::to_string(karonteIts.alerts),
                        std::to_string(sta.alerts),
                        std::to_string(staIts.alerts)});
        engines.addRow({"Bugs", std::to_string(karonte.bugs),
                        std::to_string(karonteIts.bugs),
                        std::to_string(sta.bugs),
                        std::to_string(staIts.bugs)});
        engines.addRow({"FP rate", percent(karonte.falsePositiveRate()),
                        percent(karonteIts.falsePositiveRate()),
                        percent(sta.falsePositiveRate()),
                        percent(staIts.falsePositiveRate())});
        report.text += engines.render();
    }

    // Failure accounting: every sample whose pipeline errored,
    // identified by its spec. Degraded samples (partial results) are
    // listed separately and are not failures.
    std::size_t degraded = 0;
    for (const auto &outcome : outcomes) {
        const std::string &name = outcome.spec.name;
        const char *label = name.empty() ? "<unnamed>" : name.c_str();
        if (outcome.degraded) {
            ++degraded;
            std::string why;
            for (const auto &issue : outcome.issues) {
                if (!why.empty())
                    why += "; ";
                why += issue.toString();
            }
            report.diagnostics += support::format(
                "sample degraded: %s: %s\n", label,
                why.empty() ? "partial result" : why.c_str());
        }
        if (outcome.ok())
            continue;
        ++report.failed;
        const std::string &error = outcome.status.message();
        report.diagnostics += support::format(
            "sample failed: %s: %s\n", label,
            error.empty() ? "unknown error" : error.c_str());
    }
    report.text += support::format("\nfailed samples: %zu/%zu\n",
                                   report.failed, outcomes.size());
    if (degraded > 0) {
        report.text += support::format("degraded samples: %zu/%zu\n",
                                       degraded, outcomes.size());
    }
    return report;
}

std::string
renderWallClock(double wallMs, std::size_t jobs)
{
    return support::format("wall clock: %.1f ms with %zu jobs\n",
                           wallMs, jobs);
}

std::string
renderCacheSummary()
{
    // A memory miss that the disk tier served still counts as a hit
    // overall.
    const cache::Stats cstats = cache::stats();
    const cache::Options copts = cache::options();
    const std::uint64_t hits = cstats.hits + cstats.diskHits;
    const std::uint64_t misses =
        copts.memory
            ? cstats.misses - std::min(cstats.misses, cstats.diskHits)
            : cstats.diskMisses;
    const char *tier = copts.memory && copts.disk ? "mem+disk"
                       : copts.disk               ? "disk"
                       : copts.memory             ? "mem"
                                                  : "off";
    return support::format(
        "cache: %llu hits / %llu misses, %.1f MiB, tier=%s\n",
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        static_cast<double>(cstats.bytes) / (1024.0 * 1024.0), tier);
}

TextReport
runRankReport(const std::vector<std::uint8_t> &bytes, std::size_t top,
              bool useSymbols)
{
    TextReport report;
    core::PipelineConfig config;
    // Repeated ranks of the same image are served from the cache
    // (persistently so under FITS_CACHE_DIR); the ranking is
    // bit-identical either way.
    config.behaviorCache = true;
    config.infer.useSymbolNames = useSymbols;

    const core::FitsPipeline pipeline(config);
    const auto artifact = pipeline.analyze(bytes);
    if (!artifact.ok()) {
        report.error = support::format(
            "pipeline failed: %s\n", artifact.status.message().c_str());
        return report;
    }
    report.ok = true;
    report.text += support::format(
        "analyzed %s: %zu functions in %.1f ms "
        "(%zu candidates after clustering)\n\n",
        artifact.binaryName.c_str(), artifact.numFunctions,
        artifact.analysisMs, artifact.inference.numCandidates);
    for (std::size_t i = 0;
         i < top && i < artifact.inference.ranking.size(); ++i) {
        const auto &rf = artifact.inference.ranking[i];
        report.text += support::format(
            "#%-3zu %-12s score %.4f%s%s\n", i + 1,
            support::hex(rf.entry).c_str(), rf.score,
            rf.name.empty() ? "" : "  ", rf.name.c_str());
    }
    return report;
}

TextReport
runTaintReport(const std::vector<std::uint8_t> &bytes,
               const std::string &engine,
               const std::vector<std::uint64_t> &itsAddrs)
{
    TextReport report;
    auto unpacked = fw::unpackFirmware(bytes);
    if (!unpacked) {
        report.error =
            support::format("unpack failed: %s\n",
                            unpacked.errorMessage().c_str());
        return report;
    }
    auto target =
        fw::selectAnalysisTarget(unpacked.value().filesystem);
    if (!target) {
        report.error =
            support::format("selection failed: %s\n",
                            target.errorMessage().c_str());
        return report;
    }
    // An ITS is a custom function of the network binary: an address
    // that is no function entry there could never seed anything.
    for (std::uint64_t addr : itsAddrs) {
        if (target.value().main->program.functionAt(addr) == nullptr) {
            report.error = support::format("no function at %s\n",
                                           support::hex(addr).c_str());
            return report;
        }
    }
    const analysis::LinkedProgram linked(*target.value().main,
                                         target.value().libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);

    auto sources = taint::classicalTaintSources();
    for (std::uint64_t addr : itsAddrs)
        sources.push_back(
            taint::TaintSource::its(addr, support::hex(addr)));

    taint::TaintReport taintReport;
    if (engine == "sta") {
        taintReport = taint::StaEngine().run(pa, sources);
    } else {
        taintReport = taint::KaronteEngine().run(pa, sources);
    }
    const auto alerts = itsAddrs.empty()
                            ? taintReport.alerts
                            : taintReport.filteredAlerts();

    report.ok = true;
    report.text += support::format(
        "%s: %zu alerts in %.1f ms (%zu sources, %zu of "
        "them ITSs%s)\n\n",
        engine.c_str(), alerts.size(), taintReport.analysisMs,
        sources.size(), itsAddrs.size(),
        itsAddrs.empty() ? "" : "; system-data filtered");
    for (const auto &alert : alerts) {
        report.text += support::format(
            "  %-8s at %-10s in fn %-10s [%s]\n",
            alert.sinkName.c_str(),
            support::hex(alert.sinkSite).c_str(),
            support::hex(alert.inFunction).c_str(),
            taint::vulnClassName(alert.vclass));
    }
    return report;
}

} // namespace fits::eval
