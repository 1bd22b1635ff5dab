/**
 * @file
 * Reproduces Figure 5 and the single-feature study of §4.4: ITS
 * inference precision when one BFV feature is removed (CF-1..CF-11)
 * compared to the full BFV, and inference from each individual
 * feature alone.
 */

#include <cstdio>
#include <vector>

#include "core/bfv.hh"
#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "obs/bench_record.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

int
main()
{
    using namespace fits;

    std::printf("=== Figure 5: BFV ablation (CF-k removes feature k) "
                "===\n\n");

    // The expensive pass happens once (fanned out across workers);
    // every variant only re-ranks the retained representations.
    const auto outcomes =
        eval::CorpusRunner().run(synth::standardDataset());

    eval::TablePrinter table(
        {"Variant", "Removed feature", "Top-1", "Top-2", "Top-3"});
    const auto full = eval::rerank(outcomes, core::InferConfig{});
    {
        table.addRow({"BFV", "-", eval::percent(full.p1()),
                      eval::percent(full.p2()),
                      eval::percent(full.p3())});
        table.addSeparator();
    }
    for (int k = 0; k < core::Bfv::kNumFeatures; ++k) {
        core::InferConfig config;
        config.dropFeature = k;
        const auto stats = eval::rerank(outcomes, config);
        table.addRow({support::format("CF-%d", k + 1),
                      core::Bfv::featureName(k),
                      eval::percent(stats.p1()),
                      eval::percent(stats.p2()),
                      eval::percent(stats.p3())});
    }
    table.print();
    std::printf("\nPaper's claim: the full BFV dominates every CF-k "
                "variant, and CF-3 (removing\nthe number of callers) "
                "collapses top-1/top-2 precision.\n");

    // ---- single-feature inference (§4.4) -----------------------------
    std::printf("\n=== Single-feature inference ===\n\n");
    eval::TablePrinter single({"Feature", "Top-1", "Top-2", "Top-3"});
    for (int k = 0; k < core::Bfv::kNumFeatures; ++k) {
        core::InferConfig config;
        config.onlyFeature = k;
        const auto stats = eval::rerank(outcomes, config);
        single.addRow({core::Bfv::featureName(k),
                       eval::percent(stats.p1()),
                       eval::percent(stats.p2()),
                       eval::percent(stats.p3())});
    }
    single.print();
    std::printf("\nPaper's claim: no single feature suffices; only "
                "\"number of callers\" shows a\nweak signal (21%% "
                "top-3), and boolean features alone are "
                "meaningless.\n");

    obs::BenchRecord record("fig5_ablation");
    record.add("samples", static_cast<double>(outcomes.size()));
    record.add("full_bfv_top1", full.p1());
    record.add("full_bfv_top2", full.p2());
    record.add("full_bfv_top3", full.p3());
    record.write();
    return 0;
}
