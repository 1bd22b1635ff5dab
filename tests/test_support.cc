/** @file Unit tests for the support utilities (RNG, strings, Result,
 * file reading). */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "support/file.hh"
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

TEST(Hash64, KnownAnswers)
{
    const auto h = [](std::string_view s) {
        return hash64(s.data(), s.size());
    };
    // Published XXH64 (seed 0) vectors; the 39-byte string runs the
    // four-lane loop, then the 4- and 1-byte tails.
    EXPECT_EQ(h(""), 0xef46db3751d8e999ULL);
    EXPECT_EQ(h("a"), 0xd24ec4f1a98c6e5bULL);
    EXPECT_EQ(h("abc"), 0x44bc2cf5ad770999ULL);
    EXPECT_EQ(h("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ULL);

    // xxHash's own sanity vectors over its generated test buffer:
    // 14 bytes run the 8-, 4- and 1-byte tails without the lanes, 222
    // bytes six stripes and then every tail.
    std::vector<unsigned char> sanity(222);
    std::uint64_t gen = 2654435761ULL;
    for (auto &b : sanity) {
        b = static_cast<unsigned char>(gen >> 56);
        gen *= 11400714785074694797ULL;
    }
    EXPECT_EQ(hash64(sanity.data(), 1), 0xe934a84adb052768ULL);
    EXPECT_EQ(hash64(sanity.data(), 14), 0x8282dcc4994e35c8ULL);
    EXPECT_EQ(hash64(sanity.data(), 222), 0xb641ae8cb691c174ULL);
    // Regression pins from this implementation, which matches every
    // vector above: tails of exactly 4 and exactly 8 bytes, the
    // boundaries of the 4- and 8-byte tail steps.
    EXPECT_EQ(hash64(sanity.data(), 4), 0x9136a0dca57457eeULL);
    EXPECT_EQ(hash64(sanity.data(), 8), 0xcdbcf538e71d1348ULL);

    // Every single-bit flip changes the hash, at every length through
    // two full four-lane stripes, and so does appending a byte.
    std::vector<unsigned char> bytes(65);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<unsigned char>(i * 101 + 7);
    for (std::size_t len = 0; len <= 64; ++len) {
        const std::uint64_t base = hash64(bytes.data(), len);
        EXPECT_NE(base, hash64(bytes.data(), len + 1)) << "length " << len;
        for (std::size_t bit = 0; bit < 8 * len; ++bit) {
            bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
            EXPECT_NE(hash64(bytes.data(), len), base)
                << "length " << len << " bit " << bit;
            bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        }
    }
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

TEST(ReadFile, MissingEmptyAndExactBinaryBytes)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "fits_read_file_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    EXPECT_FALSE(readFile((dir / "missing").string()).has_value());
    EXPECT_FALSE(readFile(dir.string()).has_value()) << "a directory";

    std::ofstream(dir / "empty").close();
    const auto empty = readFile((dir / "empty").string());
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());

    // Every byte value, NUL, CR/LF and 0x1a included, twice over.
    std::vector<std::uint8_t> binary;
    for (int pass = 0; pass < 2; ++pass) {
        for (int b = 0; b < 256; ++b)
            binary.push_back(static_cast<std::uint8_t>(b));
    }
    {
        std::ofstream out(dir / "binary", std::ios::binary);
        out.write(reinterpret_cast<const char *>(binary.data()),
                  static_cast<std::streamsize>(binary.size()));
    }
    EXPECT_EQ(readFile((dir / "binary").string()), binary);
    fs::remove_all(dir);
}

} // namespace
} // namespace fits::support
