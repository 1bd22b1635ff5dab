/**
 * @file
 * Ablations of this implementation's own design choices (the knobs
 * DESIGN.md calls out), beyond the paper's Figure-5 feature ablation:
 *
 *   A. vendor mode — symbol-name prior on unstripped builds
 *      (Discussion §5: "vendors ... can leverage more semantic
 *      information ... to improve the performance of FITS");
 *   B. DBSCAN eps sweep (cluster granularity);
 *   C. DBSCAN noise handling — singleton classes vs discarding;
 *   D. UCSE indirect-target resolution on/off (call-graph
 *      completeness feeds the caller/callee features);
 *   E. anchor-matrix size — how many libc implementations Eq. 2
 *      actually needs.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "obs/bench_record.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

namespace {

using namespace fits;

void
addRow(eval::TablePrinter &table, const std::string &label,
       const eval::PrecisionStats &stats)
{
    table.addRow({label, eval::percent(stats.p1()),
                  eval::percent(stats.p2()),
                  eval::percent(stats.p3())});
}

} // namespace

int
main()
{
    std::printf("=== Design-choice ablations ===\n\n");

    // Analyze the corpus once (stripped) and once in vendor mode;
    // each pass generates samples inside the runner's workers.
    const auto specs = synth::standardDataset();
    auto vendorSpecs = specs;
    for (auto &spec : vendorSpecs)
        spec.keepSymbols = true;

    const eval::CorpusRunner runner;
    const auto stripped = runner.run(specs);
    const auto vendor = runner.run(vendorSpecs);

    // ---- A: vendor mode ---------------------------------------------
    std::printf("A. Symbol-name prior (Discussion §5 vendor mode)\n");
    const auto strippedStats =
        eval::rerank(stripped, core::InferConfig{});
    core::InferConfig namesOn;
    namesOn.useSymbolNames = true;
    const auto vendorPriorStats = eval::rerank(vendor, namesOn);
    {
        eval::TablePrinter table({"Configuration", "Top-1", "Top-2",
                                  "Top-3"});
        addRow(table, "stripped (third-party analyst)",
               strippedStats);
        core::InferConfig namesOff;
        addRow(table, "unstripped, prior unused",
               eval::rerank(vendor, namesOff));
        addRow(table, "unstripped + symbol prior", vendorPriorStats);
        table.print();
        std::printf("The prior pushes websGetVar-style names above "
                    "nvram/cfg look-alikes, as the\npaper predicts "
                    "for vendors analyzing their own builds.\n\n");
    }

    // ---- B: DBSCAN eps sweep ------------------------------------------
    std::printf("B. DBSCAN eps (clustering granularity)\n");
    {
        eval::TablePrinter table({"eps", "Top-1", "Top-2", "Top-3"});
        for (double eps : {0.15, 0.25, 0.35, 0.50, 0.80}) {
            core::InferConfig config;
            config.dbscan.eps = eps;
            addRow(table, eval::fixed(eps, 2),
                   eval::rerank(stripped, config));
        }
        table.print();
        std::printf("Precision is eps-insensitive here because the "
                    "noise-as-singletons policy\n(section C) lets the "
                    "complexity filter recover whatever the density "
                    "threshold\nmisclassifies.\n\n");
    }

    // ---- C: noise handling ---------------------------------------------
    std::printf("C. DBSCAN noise points\n");
    {
        eval::TablePrinter table({"Policy", "Top-1", "Top-2",
                                  "Top-3"});
        core::InferConfig keep;
        addRow(table, "singleton classes (ours)",
               eval::rerank(stripped, keep));
        core::InferConfig drop;
        drop.noiseAsSingletons = false;
        addRow(table, "discard noise", eval::rerank(stripped, drop));
        table.print();
        std::printf("Rare behaviours (the ITS often is one) must "
                    "reach the complexity filter;\ndiscarding noise "
                    "silently removes them.\n\n");
    }

    // ---- D: UCSE indirect resolution ------------------------------------
    std::printf("D. UCSE indirect-target resolution\n");
    {
        eval::CorpusRunner::Config config;
        config.pipeline.behavior.ucse.maxSteps = 0; // resolver off
        const auto noUcse =
            eval::CorpusRunner(config).run(specs);
        eval::TablePrinter table({"Configuration", "Top-1", "Top-2",
                                  "Top-3"});
        addRow(table, "UCSE on (ours)",
               eval::rerank(stripped, core::InferConfig{}));
        addRow(table, "UCSE off",
               eval::rerank(noUcse, core::InferConfig{}));
        table.print();
        std::printf("Measured finding: inference precision is robust "
                    "to losing indirect call\nedges — the ITS's "
                    "callers are direct calls. The resolution matters "
                    "on the taint\nside instead: Table 5's indirect-"
                    "param bugs are exactly the ones a call graph\n"
                    "without UCSE cannot reach.\n\n");
    }

    // ---- E: anchor matrix size -------------------------------------------
    std::printf("E. Anchor-matrix size (Eq. 2)\n");
    {
        eval::TablePrinter table({"#Anchors", "Top-1", "Top-2",
                                  "Top-3"});
        for (std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{6}, std::size_t{10}}) {
            auto trimmed = stripped;
            for (auto &outcome : trimmed) {
                auto &anchors = outcome.behavior.anchorFns;
                anchors.resize(std::min(anchors.size(), n));
            }
            addRow(table, std::to_string(n),
                   eval::rerank(trimmed, core::InferConfig{}));
        }
        addRow(table, "all (15)",
               eval::rerank(stripped, core::InferConfig{}));
        table.print();
        std::printf("A handful of anchor implementations already "
                    "spans the behaviour profile;\nthe full set "
                    "mostly adds robustness.\n");
    }

    obs::BenchRecord record("ablation_design");
    record.add("samples", static_cast<double>(specs.size()));
    record.add("stripped_top1", strippedStats.p1());
    record.add("stripped_top3", strippedStats.p3());
    record.add("vendor_prior_top1", vendorPriorStats.p1());
    record.add("vendor_prior_top3", vendorPriorStats.p3());
    record.write();
    return 0;
}
