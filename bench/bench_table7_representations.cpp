/**
 * @file
 * Reproduces Table 7 of the FITS paper: ITS-inference precision with
 * the BFV versus the two code-structure representations (NERO-style
 * Augmented-CFG and Gemini-style Attributed-CFG).
 *
 * The pipeline keeps only BFVs, so each worker analyzes its sample
 * live and builds the two structural matrices from the per-function
 * analyses, ranking them through the same Algorithm 2.
 */

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "core/representations.hh"
#include "eval/corpus_runner.hh"
#include "eval/tables.hh"
#include "obs/bench_record.hh"
#include "synth/firmware_gen.hh"

namespace {

using namespace fits;

/** The two code-structure representations, in column order. */
constexpr std::array kStructural = {&core::augmentedCfgVector,
                                    &core::attributedCfgVector};

/** Rank of the first true ITS per column (Augmented-CFG,
 * Attributed-CFG, BFV); -1 is a miss. */
constexpr std::size_t kColumns = kStructural.size() + 1;
using SampleRanks = std::array<int, kColumns>;

constexpr SampleRanks kMissed = {-1, -1, -1};

SampleRanks
rankSample(const synth::SampleSpec &spec)
{
    const synth::GeneratedFirmware fw = synth::generateFirmware(spec);
    const core::PipelineArtifact artifact =
        core::FitsPipeline{}.analyze(fw.bytes);
    if (!artifact.ok())
        return kMissed;

    const core::BehaviorRepr &repr = artifact.behavior;
    SampleRanks ranks = kMissed;
    for (std::size_t r = 0; r < kStructural.size(); ++r) {
        // One row-major block per side; every row of a representation
        // has the same width.
        std::size_t width = 0;
        const auto rows = [&](const std::vector<analysis::FnId> &ids) {
            std::vector<double> block;
            for (analysis::FnId id : ids) {
                const ml::Vec row =
                    kStructural[r](artifact.analysis->fn(id));
                width = row.size();
                block.insert(block.end(), row.begin(), row.end());
            }
            return block;
        };
        const std::vector<double> custom = rows(repr.customFns);
        const std::vector<double> anchors = rows(repr.anchorFns);
        ranks[r] = eval::rankOfFirstIts(
            core::inferIts(repr, custom, anchors, width).ranking,
            fw.truth);
    }
    ranks.back() =
        eval::rankOfFirstIts(artifact.inference.ranking, fw.truth);
    return ranks;
}

} // namespace

int
main()
{
    std::printf("=== Table 7: inference results based on different "
                "representations ===\n\n");

    const auto specs = synth::standardDataset();
    const auto samples = eval::CorpusRunner().map<SampleRanks>(
        specs.size(), [&](std::size_t i) { return rankSample(specs[i]); },
        [](std::size_t, const std::string &) { return kMissed; });

    std::array<eval::PrecisionStats, kColumns> stats;
    for (const SampleRanks &ranks : samples) {
        for (std::size_t r = 0; r < stats.size(); ++r)
            stats[r].addRank(ranks[r]);
    }

    eval::TablePrinter table(
        {"", "Augmented-CFG", "Attributed-CFG", "BFV"});
    table.addRow({"Top-1", eval::percent(stats[0].p1()),
                  eval::percent(stats[1].p1()),
                  eval::percent(stats[2].p1())});
    table.addRow({"Top-2", eval::percent(stats[0].p2()),
                  eval::percent(stats[1].p2()),
                  eval::percent(stats[2].p2())});
    table.addRow({"Top-3", eval::percent(stats[0].p3()),
                  eval::percent(stats[1].p3()),
                  eval::percent(stats[2].p3())});
    table.print();

    std::printf("\nPaper's Table 7: Augmented-CFG 0/5/10%%, "
                "Attributed-CFG 0/0/1%%, BFV 47/63/89%%.\n"
                "Code-structure representations capture code-level "
                "similarity, not behaviour:\nthey lack caller counts, "
                "parameter flow, and call-site string features, so "
                "they\ncannot separate an input getter from any other "
                "loop-over-memory function.\n");

    obs::BenchRecord record("table7_representations");
    const char *names[kColumns] = {"augmented_cfg", "attributed_cfg",
                                   "bfv"};
    for (std::size_t r = 0; r < kColumns; ++r) {
        record.add(std::string(names[r]) + "_top1", stats[r].p1());
        record.add(std::string(names[r]) + "_top3", stats[r].p3());
    }
    record.write();
    return 0;
}
