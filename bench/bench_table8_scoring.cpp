/**
 * @file
 * Reproduces Table 8 of the FITS paper (scoring-metric comparison:
 * Euclidean / Manhattan / Pearson / Cosine) and the §4.5 strategy
 * study: removing the behavior-clustering stage (direct scoring) or
 * replacing it with PCA / standardization / min-max normalization.
 */

#include <cstdio>
#include <vector>

#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "obs/bench_record.hh"
#include "synth/firmware_gen.hh"

int
main()
{
    using namespace fits;

    std::printf("=== Table 8: inference results based on different "
                "scoring methods ===\n\n");

    const auto outcomes =
        eval::CorpusRunner().run(synth::standardDataset());

    const ml::Metric metrics[4] = {
        ml::Metric::Euclidean, ml::Metric::Manhattan,
        ml::Metric::Pearson, ml::Metric::Cosine};

    eval::TablePrinter table(
        {"", "Euclidean", "Manhattan", "Pearson", "Cosine"});
    std::vector<eval::PrecisionStats> stats(4);
    for (int m = 0; m < 4; ++m) {
        core::InferConfig config;
        config.scoreMetric = metrics[m];
        stats[m] = eval::rerank(outcomes, config);
    }
    table.addRow({"Top-1", eval::percent(stats[0].p1()),
                  eval::percent(stats[1].p1()),
                  eval::percent(stats[2].p1()),
                  eval::percent(stats[3].p1())});
    table.addRow({"Top-2", eval::percent(stats[0].p2()),
                  eval::percent(stats[1].p2()),
                  eval::percent(stats[2].p2()),
                  eval::percent(stats[3].p2())});
    table.addRow({"Top-3", eval::percent(stats[0].p3()),
                  eval::percent(stats[1].p3()),
                  eval::percent(stats[2].p3()),
                  eval::percent(stats[3].p3())});
    table.print();
    std::printf("\nPaper's Table 8: Euclidean 15/25/49%%, Manhattan "
                "20/25/44%%, Pearson 34/50/57%%,\nCosine 47/63/89%% — "
                "cosine wins on every row.\n");

    // ---- strategy study (§4.5) ---------------------------------------
    std::printf("\n=== Candidate-selection strategies (§4.5) ===\n\n");
    const core::CandidateStrategy strategies[5] = {
        core::CandidateStrategy::BehaviorClustering,
        core::CandidateStrategy::DirectScoring,
        core::CandidateStrategy::Pca,
        core::CandidateStrategy::Standardize,
        core::CandidateStrategy::MinMax,
    };
    eval::TablePrinter strat(
        {"Strategy", "Top-1", "Top-2", "Top-3"});
    for (const auto strategy : strategies) {
        core::InferConfig config;
        config.strategy = strategy;
        const auto s = eval::rerank(outcomes, config);
        strat.addRow({core::candidateStrategyName(strategy),
                      eval::percent(s.p1()), eval::percent(s.p2()),
                      eval::percent(s.p3())});
    }
    strat.print();
    std::printf("\nPaper's §4.5: direct scoring reaches only ~5/5/7%% "
                "(a single dominant count\nfeature drowns the rest); "
                "PCA/standardize/normalize stay below 10%% top-3;\n"
                "only the clustering + complexity-filter stage "
                "recovers high precision.\n");

    obs::BenchRecord record("table8_scoring");
    record.add("euclidean_top3", stats[0].p3());
    record.add("manhattan_top3", stats[1].p3());
    record.add("pearson_top3", stats[2].p3());
    record.add("cosine_top1", stats[3].p1());
    record.add("cosine_top2", stats[3].p2());
    record.add("cosine_top3", stats[3].p3());
    record.write();
    return 0;
}
