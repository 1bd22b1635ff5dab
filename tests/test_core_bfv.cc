/** @file Unit tests for the BFV representation and anchor sets. */

#include <gtest/gtest.h>

#include <set>

#include "core/anchors.hh"
#include "core/bfv.hh"

namespace fits::core {
namespace {

Bfv
paperExampleBfv()
{
    // The §3.2 example: fn16's BFV is
    // [17, True, 2, 3, 5, 6, True, True, True, True, 2].
    Bfv bfv;
    bfv.numBlocks = 17;
    bfv.hasLoop = true;
    bfv.numCallers = 2;
    bfv.numParams = 3;
    bfv.numAnchorCalls = 5;
    bfv.numLibCalls = 6;
    bfv.paramsControlLoop = true;
    bfv.paramsControlBranch = true;
    bfv.paramsToAnchor = true;
    bfv.argsHaveStrings = true;
    bfv.numDistinctStrings = 2;
    return bfv;
}

TEST(BfvTest, VectorMatchesPaperOrdering)
{
    const ml::Vec v = paperExampleBfv().toVector();
    const ml::Vec expected = {17, 1, 2, 3, 5, 6, 1, 1, 1, 1, 2};
    EXPECT_EQ(v, expected);
    EXPECT_EQ(v.size(),
              static_cast<std::size_t>(Bfv::kNumFeatures));
}

TEST(BfvTest, DropFeatureRemovesExactlyOne)
{
    for (int k = 0; k < Bfv::kNumFeatures; ++k) {
        const std::vector<int> kept = Bfv::keptFeatures(k, -1);
        ASSERT_EQ(kept.size(),
                  static_cast<std::size_t>(Bfv::kNumFeatures - 1))
            << k;
        // The remaining features appear in order.
        std::size_t j = 0;
        for (int i = 0; i < Bfv::kNumFeatures; ++i) {
            if (i == k)
                continue;
            EXPECT_EQ(kept[j++], i);
        }
    }
}

TEST(BfvTest, DropOutOfRangeReturnsFull)
{
    EXPECT_EQ(Bfv::keptFeatures(-1, -1).size(), 11u);
    EXPECT_EQ(Bfv::keptFeatures(99, -1).size(), 11u);
}

TEST(BfvTest, KeepOnly)
{
    const ml::Vec full = paperExampleBfv().toVector();
    EXPECT_EQ(Bfv::keptFeatures(-1, 0), std::vector<int>{0});
    EXPECT_EQ(full[0], 17);
    EXPECT_EQ(Bfv::keptFeatures(-1, 10), std::vector<int>{10});
    EXPECT_EQ(full[10], 2);
    EXPECT_EQ(Bfv::keptFeatures(-1, 99).size(), 11u);
    // Keeping one overrides dropping another.
    EXPECT_EQ(Bfv::keptFeatures(3, 3), std::vector<int>{3});
}

TEST(BfvTest, FeatureNamesDistinct)
{
    std::set<std::string> names;
    for (int k = 0; k < Bfv::kNumFeatures; ++k)
        names.insert(Bfv::featureName(k));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(Bfv::kNumFeatures));
    EXPECT_STREQ(Bfv::featureName(2), "num-callers");
}

TEST(Anchors, KnownNames)
{
    EXPECT_TRUE(isAnchorName("strcpy"));
    EXPECT_TRUE(isAnchorName("memcmp"));
    EXPECT_TRUE(isAnchorName("strstr"));
    EXPECT_TRUE(isAnchorName("strlen"));
    EXPECT_FALSE(isAnchorName("recv"));
    EXPECT_FALSE(isAnchorName("system"));
    EXPECT_FALSE(isAnchorName("sprintf"));
    EXPECT_FALSE(isAnchorName(""));
}

TEST(Anchors, ListConsistentWithPredicate)
{
    for (const auto &name : anchorFunctionNames())
        EXPECT_TRUE(isAnchorName(name)) << name;
}

} // namespace
} // namespace fits::core
