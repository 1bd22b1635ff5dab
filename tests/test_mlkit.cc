/** @file Unit and property tests for the ML kit (distances, DBSCAN,
 * scaling, PCA, statistics). */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "mlkit/dbscan.hh"
#include "mlkit/distance.hh"
#include "mlkit/pca.hh"
#include "mlkit/scaling.hh"
#include "mlkit/stats.hh"
#include "support/rng.hh"

namespace fits::ml {
namespace {

TEST(VectorOps, DotAndNorm)
{
    EXPECT_DOUBLE_EQ(dot(Vec{1, 2, 3}, Vec{4, 5, 6}), 32.0);
    EXPECT_DOUBLE_EQ(norm(Vec{3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(norm(Vec{0, 0}), 0.0);
}

TEST(VectorOps, ColumnStats)
{
    const Matrix m = {{1, 10}, {3, 30}};
    EXPECT_EQ(columns(m), 2u);
    EXPECT_EQ(columnMean(m), (Vec{2, 20}));
    EXPECT_EQ(columnAbsMax(m), (Vec{3, 30}));
    const Vec sd = columnStddev(m, columnMean(m));
    EXPECT_DOUBLE_EQ(sd[0], 1.0);
    EXPECT_DOUBLE_EQ(sd[1], 10.0);
}

TEST(Distance, CosineKnownValues)
{
    EXPECT_DOUBLE_EQ(cosineSimilarity(Vec{1, 0}, Vec{1, 0}), 1.0);
    EXPECT_DOUBLE_EQ(cosineSimilarity(Vec{1, 0}, Vec{0, 1}), 0.0);
    EXPECT_DOUBLE_EQ(cosineSimilarity(Vec{1, 0}, Vec{-1, 0}), -1.0);
    // A zero vector has similarity 0.
    EXPECT_DOUBLE_EQ(cosineSimilarity(Vec{0, 0}, Vec{1, 1}), 0.0);
    // Cosine is scale-invariant.
    EXPECT_NEAR(cosineSimilarity(Vec{1, 2}, Vec{10, 20}), 1.0, 1e-12);
}

TEST(Distance, EuclideanAndManhattan)
{
    EXPECT_DOUBLE_EQ(euclideanDistance(Vec{0, 0}, Vec{3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(manhattanDistance(Vec{0, 0}, Vec{3, 4}), 7.0);
}

TEST(Distance, PearsonKnownValues)
{
    EXPECT_NEAR(pearsonCorrelation(Vec{1, 2, 3}, Vec{2, 4, 6}), 1.0,
                1e-12);
    EXPECT_NEAR(pearsonCorrelation(Vec{1, 2, 3}, Vec{3, 2, 1}), -1.0,
                1e-12);
    EXPECT_DOUBLE_EQ(pearsonCorrelation(Vec{1, 1, 1}, Vec{2, 4, 6}),
                     0.0);
}

TEST(Distance, MetricProperties)
{
    // Property sweep: symmetry and identity over random vectors.
    support::Rng rng(99);
    for (int round = 0; round < 200; ++round) {
        Vec a(6), b(6);
        for (std::size_t i = 0; i < 6; ++i) {
            a[i] = rng.uniformReal(-5, 5);
            b[i] = rng.uniformReal(-5, 5);
        }
        for (Metric m : {Metric::Cosine, Metric::Euclidean,
                         Metric::Manhattan, Metric::Pearson}) {
            EXPECT_NEAR(distance(m, a, b), distance(m, b, a), 1e-9);
            EXPECT_GE(distance(Metric::Euclidean, a, a), 0.0);
        }
        EXPECT_NEAR(distance(Metric::Euclidean, a, a), 0.0, 1e-12);
        EXPECT_NEAR(distance(Metric::Manhattan, a, a), 0.0, 1e-12);
        const double cs = cosineSimilarity(a, b);
        EXPECT_LE(cs, 1.0 + 1e-9);
        EXPECT_GE(cs, -1.0 - 1e-9);
    }
}

TEST(Distance, SimilarityMonotoneInDistance)
{
    const Vec a = {0, 0};
    EXPECT_GT(similarity(Metric::Euclidean, a, Vec{1, 0}),
              similarity(Metric::Euclidean, a, Vec{5, 0}));
    EXPECT_GT(similarity(Metric::Manhattan, a, Vec{1, 0}),
              similarity(Metric::Manhattan, a, Vec{5, 0}));
}

TEST(Dbscan, TwoBlobsAndNoise)
{
    Matrix points;
    support::Rng rng(5);
    for (int i = 0; i < 20; ++i)
        points.push_back({rng.uniformReal(0, 0.2),
                          rng.uniformReal(0, 0.2)});
    for (int i = 0; i < 20; ++i)
        points.push_back({rng.uniformReal(5, 5.2),
                          rng.uniformReal(5, 5.2)});
    points.push_back({2.5, 2.5}); // isolated noise point

    const DbscanResult r = dbscan(points, {0.5, 3});
    EXPECT_EQ(r.numClusters, 2);
    EXPECT_EQ(r.noiseCount(), 1u);
    EXPECT_EQ(r.labels[40], -1);
    // All blob-1 members share one label; blob-2 another.
    for (int i = 1; i < 20; ++i)
        EXPECT_EQ(r.labels[i], r.labels[0]);
    for (int i = 21; i < 40; ++i)
        EXPECT_EQ(r.labels[i], r.labels[20]);
    EXPECT_NE(r.labels[0], r.labels[20]);
    EXPECT_EQ(r.members(r.labels[0]).size(), 20u);
}

TEST(Dbscan, AllNoiseWhenSparse)
{
    Matrix points = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
    const DbscanResult r = dbscan(points, {1.0, 3});
    EXPECT_EQ(r.numClusters, 0);
    EXPECT_EQ(r.noiseCount(), 4u);
}

TEST(Dbscan, MinPtsOneMakesEverythingCore)
{
    Matrix points = {{0, 0}, {10, 0}};
    const DbscanResult r = dbscan(points, {1.0, 1});
    EXPECT_EQ(r.numClusters, 2);
    EXPECT_EQ(r.noiseCount(), 0u);
}

TEST(Dbscan, EmptyInput)
{
    const DbscanResult r = dbscan({}, {0.5, 3});
    EXPECT_EQ(r.numClusters, 0);
    EXPECT_TRUE(r.labels.empty());
}

TEST(Dbscan, RejectsRowsOfUnequalLength)
{
    const Matrix ragged = {{0, 0}, {1}, {0, 1}};
    EXPECT_THROW(dbscan(ragged, {1.0, 1}),
                 std::invalid_argument);
}

TEST(Dbscan, RejectsBlockOfPartialRows)
{
    const std::vector<double> values = {0, 0, 1};
    EXPECT_THROW(dbscan(values, 2, {1.0, 1}), std::invalid_argument);
    EXPECT_THROW(dbscan(values, 0, {1.0, 1}), std::invalid_argument);
    EXPECT_EQ(dbscan(values, 3, {1.0, 1}).labels, std::vector<int>{0});
}

TEST(Scaling, MaxAbs)
{
    const Matrix out = maxAbsScale({{2, -10}, {4, 5}});
    EXPECT_DOUBLE_EQ(out[0][0], 0.5);
    EXPECT_DOUBLE_EQ(out[1][0], 1.0);
    EXPECT_DOUBLE_EQ(out[0][1], -1.0);
    EXPECT_DOUBLE_EQ(out[1][1], 0.5);
}

TEST(Scaling, MaxAbsZeroColumnUntouched)
{
    const Matrix out = maxAbsScale({{0, 1}, {0, 2}});
    EXPECT_DOUBLE_EQ(out[0][0], 0.0);
    EXPECT_DOUBLE_EQ(out[1][0], 0.0);
}

TEST(Scaling, Standardize)
{
    const Matrix out = standardize({{1, 5}, {3, 5}});
    EXPECT_DOUBLE_EQ(out[0][0], -1.0);
    EXPECT_DOUBLE_EQ(out[1][0], 1.0);
    EXPECT_DOUBLE_EQ(out[0][1], 0.0); // zero-variance column
}

TEST(Scaling, MinMax)
{
    const Matrix out = minMaxScale({{0, 2}, {10, 4}, {5, 3}});
    EXPECT_DOUBLE_EQ(out[0][0], 0.0);
    EXPECT_DOUBLE_EQ(out[1][0], 1.0);
    EXPECT_DOUBLE_EQ(out[2][0], 0.5);
    EXPECT_DOUBLE_EQ(out[2][1], 0.5);
}

TEST(Pca, RecoversDominantDirection)
{
    // Points along the line y = 2x with small noise: the first
    // component must align with (1, 2)/|.|.
    support::Rng rng(7);
    Matrix m;
    for (int i = 0; i < 200; ++i) {
        const double t = rng.uniformReal(-1, 1);
        m.push_back({t + rng.uniformReal(-0.01, 0.01),
                     2 * t + rng.uniformReal(-0.01, 0.01)});
    }
    const PcaModel model = fitPca(m, 1);
    ASSERT_EQ(model.components.size(), 1u);
    const Vec &c = model.components[0];
    const double ratio = std::fabs(c[1] / c[0]);
    EXPECT_NEAR(ratio, 2.0, 0.05);
}

TEST(Pca, TransformCentersData)
{
    const Matrix m = {{1, 1}, {3, 3}};
    const PcaModel model = fitPca(m, 2);
    const Vec projected = model.transform({2, 2}); // the mean
    for (double v : projected)
        EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Pca, ClampsComponentCount)
{
    const Matrix m = {{1, 2}, {3, 4}};
    const PcaModel model = fitPca(m, 10);
    EXPECT_EQ(model.components.size(), 2u);
}

TEST(Stats, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({2, 2, 2}), 0.0);
    EXPECT_NEAR(stddev({1, 3}), 1.0, 1e-12);
}

TEST(Stats, Correlation)
{
    EXPECT_NEAR(correlation({1, 2, 3}, {10, 20, 30}), 1.0, 1e-12);
    EXPECT_NEAR(correlation({1, 2, 3}, {30, 20, 10}), -1.0, 1e-12);
    EXPECT_DOUBLE_EQ(correlation({1, 2}, {1}), 0.0); // size mismatch
    EXPECT_DOUBLE_EQ(correlation({1, 1}, {2, 3}), 0.0); // no variance
}

TEST(Stats, LinearSlope)
{
    EXPECT_NEAR(linearSlope({0, 1, 2}, {1, 3, 5}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(linearSlope({1, 1}, {2, 3}), 0.0);
}

} // namespace
} // namespace fits::ml
