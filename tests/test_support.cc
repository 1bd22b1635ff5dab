/** @file Unit tests for the support utilities (RNG, strings, Result). */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "support/result.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace fits::support {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntCoversFullRange)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRealRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal(2.0, 4.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 4.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, IndexInBounds)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.index(13), 13u);
}

TEST(Rng, PickReturnsElement)
{
    Rng rng(29);
    const std::vector<int> items = {10, 20, 30};
    for (int i = 0; i < 100; ++i) {
        const int v = rng.pick(items);
        EXPECT_TRUE(v == 10 || v == 20 || v == 30);
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(31);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = items;
    rng.shuffle(items);
    std::sort(items.begin(), items.end());
    EXPECT_EQ(items, sorted);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(5);
    Rng child = a.fork();
    // The child should not replay the parent's stream.
    Rng b(5);
    b.fork();
    EXPECT_NE(child.next(), b.next() + 1); // sanity: streams differ
    // Determinism of forks from equal parents:
    Rng p1(77), p2(77);
    Rng c1 = p1.fork(), c2 = p2.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c1.next(), c2.next());
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"a"}, ", "), "a");
    EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Strings, Split)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split(",x,", ','),
              (std::vector<std::string>{"", "x", ""}));
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("firmware.bin", "firm"));
    EXPECT_FALSE(startsWith("firm", "firmware"));
    EXPECT_TRUE(endsWith("lib/libc.so", "libc.so"));
    EXPECT_FALSE(endsWith(".so", "libc.so"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_TRUE(endsWith("x", ""));
}

TEST(Strings, ToLower)
{
    EXPECT_EQ(toLower("HeLLo-123"), "hello-123");
}

TEST(Strings, Hex)
{
    EXPECT_EQ(hex(0), "0x0");
    EXPECT_EQ(hex(0x19090), "0x19090");
    EXPECT_EQ(hex(0xdeadbeef), "0xdeadbeef");
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%05.1f", 3.25), "003.2");
    EXPECT_EQ(format("empty"), "empty");
}

TEST(Strings, Fnv1aStableAndDistinct)
{
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
    EXPECT_NE(fnv1a(""), fnv1a(std::string_view("\0", 1)));
}

TEST(Result, OkCarriesValue)
{
    auto r = Result<int>::ok(42);
    ASSERT_TRUE(r.hasValue());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
    EXPECT_TRUE(r.errorMessage().empty());
}

TEST(Result, ErrorCarriesMessage)
{
    auto r = Result<int>::error(
        Status::error(Stage::Unpack, ErrorCode::Corrupt, "boom"));
    EXPECT_FALSE(r.hasValue());
    EXPECT_EQ(r.errorMessage(), "boom");
    EXPECT_EQ(r.status().stage(), Stage::Unpack);
    EXPECT_EQ(r.status().code(), ErrorCode::Corrupt);
}

TEST(Result, TakeMovesValue)
{
    auto r = Result<std::string>::ok("payload");
    const std::string v = r.take();
    EXPECT_EQ(v, "payload");
}

} // namespace
} // namespace fits::support
