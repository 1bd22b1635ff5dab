/** @file Unit tests for Algorithm 2 (clustering, Eq.-1 complexity
 * filter, Eq.-2 scoring, ranking) on synthetic behavior fixtures. */

#include <bit>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "core/infer.hh"

namespace fits::core {
namespace {

FunctionRecord
makeRecord(analysis::FnId id, ir::Addr entry, Bfv bfv, bool custom,
           bool anchor = false)
{
    FunctionRecord rec;
    rec.id = id;
    rec.entry = entry;
    rec.isCustom = custom;
    rec.isAnchor = anchor;
    rec.bfv = bfv;
    return rec;
}

Bfv
anchorLike()
{
    Bfv b;
    b.numBlocks = 5;
    b.hasLoop = true;
    b.numCallers = 10;
    b.numParams = 2;
    b.numAnchorCalls = 0;
    b.numLibCalls = 0;
    b.paramsControlLoop = true;
    b.paramsControlBranch = true;
    b.paramsToAnchor = false;
    b.argsHaveStrings = false;
    b.numDistinctStrings = 0;
    return b;
}

Bfv
itsLike()
{
    Bfv b;
    b.numBlocks = 12;
    b.hasLoop = true;
    b.numCallers = 8;
    b.numParams = 3;
    b.numAnchorCalls = 5;
    b.numLibCalls = 6;
    b.paramsControlLoop = true;
    b.paramsControlBranch = true;
    b.paramsToAnchor = true;
    b.argsHaveStrings = true;
    b.numDistinctStrings = 6;
    return b;
}

Bfv
errorPrinterLike()
{
    // Huge caller count, no loop, no anchors: similar to anchors only
    // through the dominant callers dimension of raw cosine.
    Bfv b;
    b.numBlocks = 3;
    b.hasLoop = false;
    b.numCallers = 500;
    b.numParams = 2;
    b.numAnchorCalls = 0;
    b.numLibCalls = 1;
    b.paramsControlBranch = true;
    b.argsHaveStrings = true;
    b.numDistinctStrings = 120;
    return b;
}

Bfv
trivialLike(double blocks)
{
    Bfv b;
    b.numBlocks = blocks;
    b.numCallers = 1;
    b.numParams = 1;
    return b;
}

/** Corpus: 1 ITS, several printers, many trivial functions, 3 anchors. */
BehaviorRepr
fixture()
{
    BehaviorRepr repr;
    analysis::FnId id = 0;
    auto add = [&](Bfv bfv, bool custom, bool anchor = false) {
        const ir::Addr entry = 0x1000 + 0x100 * id;
        repr.records.push_back(
            makeRecord(id, entry, bfv, custom, anchor));
        if (custom)
            repr.customFns.push_back(id);
        if (anchor)
            repr.anchorFns.push_back(id);
        ++id;
        return entry;
    };

    add(itsLike(), true); // the target, entry 0x1000
    for (int i = 0; i < 5; ++i)
        add(errorPrinterLike(), true);
    for (int i = 0; i < 30; ++i)
        add(trivialLike(1 + i % 3), true);
    for (int i = 0; i < 3; ++i)
        add(anchorLike(), false, true);
    return repr;
}

TEST(Infer, ItsRanksFirstWithFullPipeline)
{
    const BehaviorRepr repr = fixture();
    const InferenceResult result = inferIts(repr);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result.ranking.empty());
    EXPECT_EQ(result.ranking[0].entry, 0x1000u);
}

TEST(Infer, ClusteringFiltersCandidates)
{
    const BehaviorRepr repr = fixture();
    const InferenceResult result = inferIts(repr);
    ASSERT_TRUE(result.ok());
    // Trivial functions fall below the average class complexity.
    EXPECT_LT(result.numCandidates, repr.customFns.size());
    EXPECT_GT(result.numCandidates, 0u);
}

TEST(Infer, DirectScoringIsWorseForTheIts)
{
    // Without clustering/normalization, raw cosine is dominated by
    // the caller-count dimension and the printers win (§4.5).
    const BehaviorRepr repr = fixture();
    InferConfig config;
    config.strategy = CandidateStrategy::DirectScoring;
    const InferenceResult result = inferIts(repr, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.numCandidates, repr.customFns.size());
    EXPECT_NE(result.ranking[0].entry, 0x1000u);
}

TEST(Infer, AllMetricsProduceRankings)
{
    const BehaviorRepr repr = fixture();
    for (ml::Metric metric :
         {ml::Metric::Cosine, ml::Metric::Euclidean,
          ml::Metric::Manhattan, ml::Metric::Pearson}) {
        InferConfig config;
        config.scoreMetric = metric;
        const InferenceResult result = inferIts(repr, config);
        EXPECT_TRUE(result.ok()) << ml::metricName(metric);
        EXPECT_FALSE(result.ranking.empty());
    }
}

TEST(Infer, AllStrategiesProduceRankings)
{
    const BehaviorRepr repr = fixture();
    for (CandidateStrategy strategy :
         {CandidateStrategy::BehaviorClustering,
          CandidateStrategy::DirectScoring, CandidateStrategy::Pca,
          CandidateStrategy::Standardize,
          CandidateStrategy::MinMax}) {
        InferConfig config;
        config.strategy = strategy;
        const InferenceResult result = inferIts(repr, config);
        EXPECT_TRUE(result.ok())
            << candidateStrategyName(strategy);
        EXPECT_FALSE(result.ranking.empty());
    }
}

TEST(Infer, AblationConfigsRun)
{
    const BehaviorRepr repr = fixture();
    for (int k = 0; k < Bfv::kNumFeatures; ++k) {
        InferConfig drop;
        drop.dropFeature = k;
        EXPECT_TRUE(inferIts(repr, drop).ok()) << k;
        InferConfig only;
        only.onlyFeature = k;
        EXPECT_TRUE(inferIts(repr, only).ok()) << k;
    }
}

/** Each function's BFV as one matrix row, in `ids` order. */
ml::Matrix
bfvRows(const BehaviorRepr &repr, const std::vector<analysis::FnId> &ids)
{
    ml::Matrix rows;
    for (analysis::FnId id : ids)
        rows.push_back(repr.records[id].bfv.toVector());
    return rows;
}

TEST(Infer, CallerBuiltBfvRowsRankBitIdentically)
{
    const BehaviorRepr repr = fixture();
    const InferenceResult expected = inferIts(repr);
    const InferenceResult actual = inferIts(
        repr, bfvRows(repr, repr.customFns), bfvRows(repr, repr.anchorFns));
    ASSERT_TRUE(actual.ok()) << actual.error;
    EXPECT_EQ(actual.numClusters, expected.numClusters);
    EXPECT_EQ(actual.numCandidates, expected.numCandidates);
    ASSERT_EQ(actual.ranking.size(), expected.ranking.size());
    ASSERT_FALSE(actual.ranking.empty());
    for (std::size_t i = 0; i < actual.ranking.size(); ++i) {
        EXPECT_EQ(actual.ranking[i].id, expected.ranking[i].id) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.ranking[i].score),
                  std::bit_cast<std::uint64_t>(expected.ranking[i].score))
            << i;
    }
}

TEST(Infer, MismatchedCallerRowsReturnError)
{
    const BehaviorRepr repr = fixture();
    const ml::Matrix custom = bfvRows(repr, repr.customFns);
    const ml::Matrix anchors = bfvRows(repr, repr.anchorFns);

    ml::Matrix shortCustom = custom;
    shortCustom.pop_back();
    ml::Matrix longAnchors = anchors;
    longAnchors.push_back(anchors.front());
    ml::Matrix narrowRow = custom;
    narrowRow.back().pop_back();
    for (const auto &[c, a] :
         {std::pair{shortCustom, anchors}, std::pair{custom, longAnchors},
          std::pair{ml::Matrix{}, anchors}, std::pair{custom, ml::Matrix{}},
          std::pair{narrowRow, anchors}}) {
        const InferenceResult result = inferIts(repr, c, a);
        EXPECT_FALSE(result.ok());
        EXPECT_TRUE(result.ranking.empty());
    }
}

TEST(Infer, FailsWithoutAnchors)
{
    BehaviorRepr repr = fixture();
    repr.anchorFns.clear();
    const InferenceResult result = inferIts(repr);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("anchor"), std::string::npos);
}

TEST(Infer, FailsWithoutCustomFunctions)
{
    BehaviorRepr repr = fixture();
    repr.customFns.clear();
    EXPECT_FALSE(inferIts(repr).ok());
}

TEST(Infer, RankingRespectsMaxRanked)
{
    const BehaviorRepr repr = fixture();
    InferConfig config;
    config.maxRanked = 3;
    const InferenceResult result = inferIts(repr, config);
    EXPECT_LE(result.ranking.size(), 3u);
}

TEST(Infer, RankingSortedDescendingWithDeterministicTies)
{
    const BehaviorRepr repr = fixture();
    const InferenceResult result = inferIts(repr);
    for (std::size_t i = 1; i < result.ranking.size(); ++i) {
        const auto &prev = result.ranking[i - 1];
        const auto &cur = result.ranking[i];
        EXPECT_TRUE(prev.score > cur.score ||
                    (prev.score == cur.score &&
                     prev.entry < cur.entry));
    }
}

TEST(Complexity, Eq1Normalization)
{
    Bfv maxima;
    maxima.numBlocks = 10;
    maxima.numCallers = 100;
    maxima.numLibCalls = 4;
    maxima.numAnchorCalls = 2;

    Bfv f;
    f.numBlocks = 5;
    f.numCallers = 50;
    f.numLibCalls = 2;
    f.numAnchorCalls = 1;
    EXPECT_DOUBLE_EQ(functionComplexity(f, maxima), 2.0);

    // Zero maxima contribute nothing (no division by zero).
    Bfv zeroMax;
    EXPECT_DOUBLE_EQ(functionComplexity(f, zeroMax), 0.0);
}

} // namespace
} // namespace fits::core
