/** @file Determinism and degradation tests for the fits::cache
 * analysis-memoization subsystem: behavior-bundle serialization
 * round-trips bit-for-bit, rankings are identical with/without the
 * cache and across cold/warm runs on both tiers, serial and parallel
 * corpus runs agree, corrupt or stale disk entries and an unwritable
 * cache directory degrade to misses, and the memory tier stays within
 * its LRU budget. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "core/behavior_io.hh"
#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/harness.hh"
#include "support/file.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

namespace fs = std::filesystem;

/** Every test starts from a cold cache with default options and a
 * private disk directory, and restores that state on the way out so
 * no cache contents leak between tests in this process. */
class CacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cache::configure(cache::Options{});
        cache::clearMemory();
        cache::resetStats();
        dir_ = (fs::temp_directory_path() /
                ("fits_cache_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        cache::configure(cache::Options{});
        cache::clearMemory();
        cache::resetStats();
        fs::remove_all(dir_);
    }

    /** Enable the disk tier rooted at this test's private directory. */
    void
    enableDisk()
    {
        cache::Options options = cache::options();
        options.disk = true;
        options.dir = dir_;
        cache::configure(options);
    }

    std::string dir_;
};

/** A small deterministic corpus of distinct Tenda samples. */
std::vector<synth::SampleSpec>
smallCorpus(std::size_t n)
{
    std::vector<synth::SampleSpec> corpus;
    for (std::size_t i = 0; i < n; ++i) {
        synth::SampleSpec spec;
        spec.profile = synth::tendaProfile();
        spec.profile.minCustomFns = 40;
        spec.profile.maxCustomFns = 60;
        spec.product = "AC" + std::to_string(6 + i);
        spec.version = "V1";
        spec.name = "cache-sample-" + std::to_string(i);
        spec.seed = 0xcac4e + i;
        corpus.push_back(std::move(spec));
    }
    return corpus;
}

/** Exact bit-level score comparison: == would also pass for -0.0 vs
 * +0.0, which the bit-identity guarantee forbids. */
std::uint64_t
scoreBits(double score)
{
    return std::bit_cast<std::uint64_t>(score);
}

void
expectIdenticalOutcomes(
    const std::vector<eval::SampleOutcome> &outcomesA,
    const std::vector<eval::SampleOutcome> &outcomesB)
{
    ASSERT_EQ(outcomesA.size(), outcomesB.size());
    for (std::size_t i = 0; i < outcomesA.size(); ++i) {
        const auto &a = outcomesA[i];
        const auto &b = outcomesB[i];
        ASSERT_EQ(a.ok(), b.ok()) << "sample " << i;
        EXPECT_EQ(a.firstItsRank, b.firstItsRank);
        ASSERT_EQ(a.ranking.size(), b.ranking.size());
        for (std::size_t r = 0; r < a.ranking.size(); ++r) {
            EXPECT_EQ(a.ranking[r].id, b.ranking[r].id);
            EXPECT_EQ(a.ranking[r].entry, b.ranking[r].entry);
            EXPECT_EQ(a.ranking[r].name, b.ranking[r].name);
            EXPECT_EQ(scoreBits(a.ranking[r].score),
                      scoreBits(b.ranking[r].score))
                << "sample " << i << " rank " << r;
        }
    }
}

// ---- behavior-bundle serialization -------------------------------------

TEST_F(CacheTest, BundleRoundTripIsBitIdentical)
{
    const auto fw = synth::generateFirmware(smallCorpus(1)[0]);
    const core::FitsPipeline pipeline{core::PipelineConfig{}};
    const auto result = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(result.ok());

    core::BehaviorBundle bundle;
    bundle.imageInfo = result.imageInfo;
    bundle.binaryName = result.binaryName;
    bundle.numFunctions = result.numFunctions;
    bundle.binaryBytes = result.binaryBytes;
    bundle.behavior = result.behavior;

    const std::string payload = core::encodeBehaviorBundle(bundle);
    const auto decoded = core::decodeBehaviorBundle(payload);
    ASSERT_TRUE(decoded.has_value());

    EXPECT_EQ(decoded->binaryName, bundle.binaryName);
    EXPECT_EQ(decoded->numFunctions, bundle.numFunctions);
    EXPECT_EQ(decoded->binaryBytes, bundle.binaryBytes);
    EXPECT_EQ(decoded->imageInfo.vendor, bundle.imageInfo.vendor);
    ASSERT_EQ(decoded->behavior.records.size(),
              bundle.behavior.records.size());
    EXPECT_EQ(decoded->behavior.customFns, bundle.behavior.customFns);
    EXPECT_EQ(decoded->behavior.anchorFns, bundle.behavior.anchorFns);
    for (std::size_t i = 0; i < bundle.behavior.records.size(); ++i) {
        const auto &in = bundle.behavior.records[i];
        const auto &out = decoded->behavior.records[i];
        EXPECT_EQ(out.name, in.name);
        EXPECT_EQ(out.entry, in.entry);
        const auto inVec = in.bfv.toVector();
        const auto outVec = out.bfv.toVector();
        ASSERT_EQ(outVec.size(), inVec.size());
        for (std::size_t d = 0; d < inVec.size(); ++d)
            EXPECT_EQ(scoreBits(outVec[d]), scoreBits(inVec[d]));
    }

    // Re-encoding the decoded bundle must reproduce the exact bytes:
    // the payload is a pure function of the product.
    EXPECT_EQ(core::encodeBehaviorBundle(*decoded), payload);
}

TEST_F(CacheTest, DecodeRejectsCorruptPayloads)
{
    const auto fw = synth::generateFirmware(smallCorpus(1)[0]);
    const core::FitsPipeline pipeline{core::PipelineConfig{}};
    const auto result = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(result.ok());
    core::BehaviorBundle bundle;
    bundle.behavior = result.behavior;
    const std::string payload = core::encodeBehaviorBundle(bundle);

    // Truncation anywhere, a wrong magic, a future version, and
    // trailing garbage must all be rejected — never misparsed.
    EXPECT_FALSE(core::decodeBehaviorBundle("").has_value());
    for (const std::size_t cut :
         {std::size_t{3}, std::size_t{7}, payload.size() / 2,
          payload.size() - 1}) {
        EXPECT_FALSE(
            core::decodeBehaviorBundle(payload.substr(0, cut))
                .has_value())
            << "cut at " << cut;
    }
    std::string badMagic = payload;
    badMagic[0] = 'X';
    EXPECT_FALSE(core::decodeBehaviorBundle(badMagic).has_value());
    std::string badVersion = payload;
    badVersion[4] = static_cast<char>(0x7f);
    EXPECT_FALSE(core::decodeBehaviorBundle(badVersion).has_value());
    // Version 1 records also carried the two Table-7 vectors.
    std::string versionOne = payload;
    versionOne[4] = 1;
    EXPECT_FALSE(core::decodeBehaviorBundle(versionOne).has_value());
    EXPECT_FALSE(
        core::decodeBehaviorBundle(payload + '\0').has_value());

    // Custom and anchor ids past the end of `records`, behind an
    // otherwise valid encoding: inference would index records[id].
    ASSERT_FALSE(bundle.behavior.customFns.empty());
    ASSERT_FALSE(bundle.behavior.anchorFns.empty());
    core::BehaviorBundle badCustom = bundle;
    badCustom.behavior.customFns[0] = 50000000;
    EXPECT_FALSE(
        core::decodeBehaviorBundle(core::encodeBehaviorBundle(badCustom))
            .has_value());
    core::BehaviorBundle badAnchor = bundle;
    badAnchor.behavior.anchorFns.back() = static_cast<analysis::FnId>(
        bundle.behavior.records.size());
    EXPECT_FALSE(
        core::decodeBehaviorBundle(core::encodeBehaviorBundle(badAnchor))
            .has_value());
}

TEST(BehaviorBundle, ConfigFingerprintIsPinned)
{
    // The second key of every behavior blob: disk entries written by
    // earlier builds stay valid only while the default config keeps
    // this fingerprint.
    EXPECT_EQ(core::behaviorConfigFingerprint({}), 0xa150dbf2719ecad2ULL);
}

// ---- memory tier -------------------------------------------------------

TEST_F(CacheTest, ColdAndWarmMemoryRankingsIdentical)
{
    const auto corpus = smallCorpus(3);
    eval::CorpusRunner::Config config;
    config.jobs = 1;

    const eval::CorpusRunner runner(config);
    const auto cold = runner.run(corpus);
    const auto coldStats = cache::stats();
    EXPECT_GT(coldStats.misses, 0u);

    const auto warm = runner.run(corpus);
    const auto warmStats = cache::stats();
    EXPECT_GT(warmStats.hits, coldStats.hits);
    expectIdenticalOutcomes(cold, warm);

    // And both equal the fully uncached computation.
    cache::Options off;
    off.memory = false;
    off.disk = false;
    cache::configure(off);
    expectIdenticalOutcomes(cold, runner.run(corpus));
}

TEST_F(CacheTest, BehaviorBlobIsKeyedOnXxh64OfTheFirmware)
{
    // The behavior blob's first key is support::hash64 of the firmware
    // bytes, the second the behavior-config fingerprint. A cold
    // analysis writes exactly that one disk entry; a fresh pipeline on
    // the same bytes is served from it.
    enableDisk();
    const auto firmware = synth::generateFirmware(smallCorpus(1).front());
    core::PipelineConfig config;
    config.behaviorCache = true;

    const auto cold = core::FitsPipeline(config).analyze(firmware.bytes);
    ASSERT_TRUE(cold.ok()) << cold.status.toString();
    const std::string path = cache::blobPath(
        "behavior",
        support::hash64(firmware.bytes.data(), firmware.bytes.size()),
        core::behaviorConfigFingerprint(config.behavior));
    std::vector<std::string> written;
    for (const auto &entry : fs::recursive_directory_iterator(dir_)) {
        if (entry.is_regular_file())
            written.push_back(entry.path().string());
    }
    EXPECT_EQ(written, std::vector<std::string>{path});

    cache::clearMemory();
    cache::resetStats();
    const auto warm = core::FitsPipeline(config).analyze(firmware.bytes);
    ASSERT_TRUE(warm.ok()) << warm.status.toString();
    EXPECT_EQ(cache::stats().diskHits, 1u);
    EXPECT_EQ(cache::stats().diskMisses, 0u);
    ASSERT_EQ(cold.inference.ranking.size(),
              warm.inference.ranking.size());
    for (std::size_t r = 0; r < cold.inference.ranking.size(); ++r) {
        EXPECT_EQ(cold.inference.ranking[r].id,
                  warm.inference.ranking[r].id);
        EXPECT_EQ(scoreBits(cold.inference.ranking[r].score),
                  scoreBits(warm.inference.ranking[r].score));
    }
}

TEST_F(CacheTest, SerialAndParallelRankingsIdentical)
{
    const auto corpus = smallCorpus(4);
    eval::CorpusRunner::Config serialConfig;
    serialConfig.jobs = 1;
    eval::CorpusRunner::Config parallelConfig = serialConfig;
    parallelConfig.jobs = 4;

    const auto serial =
        eval::CorpusRunner(serialConfig).run(corpus);
    cache::clearMemory();
    const auto parallel =
        eval::CorpusRunner(parallelConfig).run(corpus);
    expectIdenticalOutcomes(serial, parallel);

    // Warm parallel run (workers race on a hot cache) agrees too.
    const auto warmParallel =
        eval::CorpusRunner(parallelConfig).run(corpus);
    expectIdenticalOutcomes(serial, warmParallel);
}

TEST_F(CacheTest, RunFullWithCacheMatchesWithout)
{
    const auto corpus = smallCorpus(2);
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    const eval::CorpusRunner runner(config);
    const auto cached = runner.run(corpus, /*taint=*/true);

    cache::Options off;
    off.memory = false;
    off.disk = false;
    cache::configure(off);
    const auto raw = runner.run(corpus, /*taint=*/true);

    ASSERT_EQ(cached.size(), raw.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached[i].firstItsRank, raw[i].firstItsRank);
        ASSERT_EQ(cached[i].taint.has_value(), raw[i].taint.has_value());
        if (!raw[i].taint)
            continue;
        for (std::size_t r = 0; r < eval::kTaintRuns.size(); ++r) {
            SCOPED_TRACE(eval::kTaintRuns[r].key);
            EXPECT_EQ((*cached[i].taint)[r].stats.alerts,
                      (*raw[i].taint)[r].stats.alerts);
            EXPECT_EQ((*cached[i].taint)[r].bugs, (*raw[i].taint)[r].bugs);
        }
    }
}

TEST_F(CacheTest, LruEvictionKeepsMemoryBounded)
{
    cache::Options options = cache::options();
    options.maxBytes = 64 * 1024;
    cache::configure(options);

    const std::string blob(16 * 1024, 'x');
    for (std::uint64_t i = 0; i < 32; ++i)
        cache::storeBlob("evict-test", i, i, blob);

    const auto stats = cache::stats();
    EXPECT_LE(stats.bytes, options.maxBytes);
    EXPECT_GT(stats.evictions, 0u);

    // The newest entry survived; the oldest was evicted.
    EXPECT_TRUE(cache::fetchBlob("evict-test", 31, 31).has_value());
    EXPECT_FALSE(cache::fetchBlob("evict-test", 0, 0).has_value());
}

// ---- disk tier ---------------------------------------------------------

TEST_F(CacheTest, DiskTierSurvivesProcessMemoryLoss)
{
    enableDisk();
    const auto corpus = smallCorpus(2);
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    const eval::CorpusRunner runner(config);

    const auto cold = runner.run(corpus);
    // Dropping the memory tier simulates a fresh process; the second
    // run must be served from disk, bit-identically.
    cache::clearMemory();
    cache::resetStats();
    const auto warm = runner.run(corpus);
    const auto stats = cache::stats();
    EXPECT_GT(stats.diskHits, 0u);
    expectIdenticalOutcomes(cold, warm);
}

TEST_F(CacheTest, CorruptDiskEntriesDegradeToMisses)
{
    enableDisk();
    const std::string payload = "intermediate taint sources";
    cache::storeBlob("t", 7, 9, payload);
    cache::clearMemory();
    ASSERT_EQ(cache::fetchBlob("t", 7, 9), payload);

    const std::string path = cache::blobPath("t", 7, 9);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(fs::exists(path));

    const auto rewrite = [&](const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    const auto bytes = support::readFile(path);
    ASSERT_TRUE(bytes.has_value());
    const std::string raw(bytes->begin(), bytes->end());
    ASSERT_GT(raw.size(), 8u);

    // Bit flip in the payload: checksum mismatch.
    std::string flipped = raw;
    flipped[flipped.size() - 2] =
        static_cast<char>(flipped[flipped.size() - 2] ^ 0x40);
    rewrite(flipped);
    cache::clearMemory();
    cache::resetStats();
    EXPECT_FALSE(cache::fetchBlob("t", 7, 9).has_value());
    EXPECT_GT(cache::stats().diskCorrupt, 0u);

    // Version skew: a future format is a miss, not a parse attempt.
    std::string skewed = raw;
    skewed[4] = static_cast<char>(0x7f);
    rewrite(skewed);
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 7, 9).has_value());

    // Truncation: short reads never crash.
    rewrite(raw.substr(0, raw.size() / 2));
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 7, 9).has_value());

    // Key echo mismatch: an entry renamed onto another key's path
    // (stale or attacker-moved) is rejected.
    rewrite(raw);
    fs::copy_file(path, cache::blobPath("t", 8, 10),
                  fs::copy_options::overwrite_existing);
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 8, 10).has_value());

    // The intact original still hits.
    cache::clearMemory();
    EXPECT_EQ(cache::fetchBlob("t", 7, 9), payload);
}

TEST_F(CacheTest, DiskEntryHeaderIsPinned)
{
    // Entries persist across builds, so the 40-byte header layout is
    // part of the on-disk format: magic, version 2, both keys, the
    // payload size and its XXH64, all little-endian.
    enableDisk();
    const std::string payload = "intermediate taint sources";
    cache::storeBlob("t", 7, 9, payload);
    const auto bytes = support::readFile(cache::blobPath("t", 7, 9));
    ASSERT_TRUE(bytes.has_value());
    ASSERT_EQ(bytes->size(), 40 + payload.size());

    std::vector<std::uint8_t> expected = {'F', 'C', 'H', '1', 2, 0, 0, 0};
    for (const std::uint64_t field :
         {std::uint64_t{7}, std::uint64_t{9},
          std::uint64_t{payload.size()},
          support::hash64(payload.data(), payload.size())}) {
        for (int i = 0; i < 8; ++i)
            expected.push_back(static_cast<std::uint8_t>(field >> (8 * i)));
    }
    EXPECT_EQ(std::vector<std::uint8_t>(bytes->begin(), bytes->begin() + 40),
              expected);
    EXPECT_EQ(std::string(bytes->begin() + 40, bytes->end()), payload);
}

TEST_F(CacheTest, UnwritableDiskDirSkipsEntry)
{
    // The disk root sits under a regular file, so creating it fails:
    // every store must be skipped and every fetch miss, with answers
    // unchanged.
    fs::create_directories(dir_);
    const std::string blocker = dir_ + "/blocker";
    std::ofstream(blocker) << "not a directory";
    cache::Options options = cache::options();
    options.disk = true;
    options.dir = blocker + "/cache";
    cache::configure(options);

    cache::storeBlob("t", 1, 2, "payload");
    EXPECT_FALSE(fs::exists(cache::blobPath("t", 1, 2)));
    EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                            fs::directory_iterator()),
              1)
        << "only the blocker file may remain";
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 1, 2).has_value());
    EXPECT_EQ(cache::stats().diskMisses, 1u);

    const auto corpus = smallCorpus(2);
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    const eval::CorpusRunner runner(config);
    const auto cached = runner.run(corpus);
    cache::Options off;
    off.memory = false;
    off.disk = false;
    cache::configure(off);
    const auto uncached = runner.run(corpus);
    expectIdenticalOutcomes(uncached, cached);
}

} // namespace
} // namespace fits
