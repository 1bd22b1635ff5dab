/** @file Tests of the parallel corpus evaluation engine: CorpusRunner
 * fan-out semantics, determinism vs the serial path, per-sample
 * failure isolation, logger thread-safety, and DBSCAN labels against a
 * reference oracle. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/report.hh"
#include "mlkit/dbscan.hh"
#include "mlkit/scaling.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

// ---- CorpusRunner --------------------------------------------------

eval::CorpusRunner
runnerWithJobs(std::size_t jobs)
{
    eval::CorpusRunner::Config config;
    config.jobs = jobs;
    return eval::CorpusRunner(config);
}

TEST(ResolveJobs, ExplicitThenEnvThenHardware)
{
    // Any count above the jobs value shows the resolved jobs value.
    constexpr std::size_t kMany = std::numeric_limits<std::size_t>::max();
    const std::size_t hardware =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(runnerWithJobs(5).workers(kMany), 5u);

    ::setenv("FITS_JOBS", "3", 1);
    EXPECT_EQ(runnerWithJobs(0).workers(kMany), 3u);
    EXPECT_EQ(runnerWithJobs(2).workers(kMany), 2u); // explicit wins

    for (const char *bad : {"not-a-number", "0", "-1"}) {
        ::setenv("FITS_JOBS", bad, 1);
        EXPECT_EQ(runnerWithJobs(0).workers(kMany), hardware) << bad;
    }

    ::unsetenv("FITS_JOBS");
    EXPECT_EQ(runnerWithJobs(0).workers(kMany), hardware);

    // At most one worker per item, and at least one.
    EXPECT_EQ(runnerWithJobs(5).workers(2), 2u);
    EXPECT_EQ(runnerWithJobs(5).workers(0), 1u);
}

TEST(CorpusRunner, MapRunsEveryItemExactlyOnce)
{
    constexpr std::size_t kItems = 1000;
    const auto runner = runnerWithJobs(4);
    for (int round = 0; round < 2; ++round) {
        std::vector<std::atomic<int>> runs(kItems);
        const auto results = runner.map<std::size_t>(
            kItems,
            [&runs](std::size_t i) {
                ++runs[i];
                return i * 3;
            },
            [](std::size_t, const std::string &) {
                return std::size_t{0};
            });
        ASSERT_EQ(results.size(), kItems);
        for (std::size_t i = 0; i < kItems; ++i) {
            EXPECT_EQ(runs[i].load(), 1)
                << "round " << round << " item " << i;
            EXPECT_EQ(results[i], i * 3) << "round " << round;
        }
    }
}

void
expectIdenticalStatus(const support::Status &a, const support::Status &b)
{
    EXPECT_EQ(a.stage(), b.stage());
    EXPECT_EQ(a.code(), b.code());
    EXPECT_EQ(a.message(), b.message());
}

void
expectIdenticalInference(const eval::SampleOutcome &a,
                         const eval::SampleOutcome &b)
{
    expectIdenticalStatus(a.status, b.status);
    EXPECT_EQ(a.firstItsRank, b.firstItsRank);
    EXPECT_EQ(a.binaryName, b.binaryName);
    EXPECT_EQ(a.numFunctions, b.numFunctions);
    EXPECT_EQ(a.binaryBytes, b.binaryBytes);
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t i = 0; i < a.ranking.size(); ++i) {
        EXPECT_EQ(a.ranking[i].entry, b.ranking[i].entry);
        EXPECT_EQ(a.ranking[i].name, b.ranking[i].name);
        EXPECT_DOUBLE_EQ(a.ranking[i].score, b.ranking[i].score);
    }
}

TEST(CorpusRunner, ParallelInferenceMatchesSerialOnStandardCorpus)
{
    const auto specs = synth::standardDataset();
    const auto serial = runnerWithJobs(1).run(specs);
    const auto parallel = runnerWithJobs(4).run(specs);
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        expectIdenticalInference(serial[i], parallel[i]);
    }
}

void
expectIdenticalTaint(const eval::SampleOutcome &a,
                     const eval::SampleOutcome &b)
{
    expectIdenticalStatus(a.status, b.status);
    ASSERT_EQ(a.taint.has_value(), b.taint.has_value());
    if (!a.taint)
        return;
    for (std::size_t r = 0; r < eval::kTaintRuns.size(); ++r) {
        SCOPED_TRACE(eval::kTaintRuns[r].key);
        EXPECT_EQ((*a.taint)[r].stats.alerts, (*b.taint)[r].stats.alerts);
        EXPECT_EQ((*a.taint)[r].bugs, (*b.taint)[r].bugs);
    }
}

/** A miniature corpus (one sample per vendor plus one failure) so the
 * heavier taint comparisons stay fast. */
std::vector<synth::SampleSpec>
miniCorpus()
{
    std::vector<synth::SampleSpec> corpus;
    const synth::VendorProfile profiles[] = {
        synth::netgearProfile(), synth::dlinkProfile(),
        synth::tplinkProfile(), synth::tendaProfile(),
        synth::ciscoProfile()};
    for (std::uint64_t i = 0; i < 5; ++i) {
        synth::SampleSpec spec;
        spec.profile = profiles[i];
        spec.profile.minCustomFns = 150;
        spec.profile.maxCustomFns = 220;
        spec.product = spec.profile.series.front();
        spec.version = "V1";
        spec.name = spec.product + "-V1";
        spec.seed = 0xab00 + i;
        corpus.push_back(std::move(spec));
    }
    synth::SampleSpec broken;
    broken.profile = synth::dlinkProfile();
    broken.product = broken.profile.series.front();
    broken.version = "V9";
    broken.name = broken.product + "-V9";
    broken.seed = 0xdead;
    broken.failure = synth::SampleSpec::FailureMode::OpaqueEncoding;
    broken.profile.encoding = fw::Encoding::Opaque;
    corpus.push_back(std::move(broken));
    return corpus;
}

TEST(CorpusRunner, ParallelTaintMatchesSerial)
{
    const auto corpus = miniCorpus();
    const auto serial = runnerWithJobs(1).run(corpus, /*taint=*/true);
    const auto parallel = runnerWithJobs(4).run(corpus, /*taint=*/true);
    ASSERT_EQ(serial.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE(corpus[i].name);
        expectIdenticalTaint(serial[i], parallel[i]);
    }
    // The broken sample failed alone; the rest analyzed fine.
    EXPECT_FALSE(parallel.back().taint.has_value());
    for (std::size_t i = 0; i + 1 < corpus.size(); ++i)
        EXPECT_TRUE(parallel[i].taint.has_value());
}

TEST(CorpusRunner, RunFullSharesOneAnalysisPerSample)
{
    const auto corpus = miniCorpus();
    const auto runner = runnerWithJobs(3);
    const auto full = runner.run(corpus, /*taint=*/true);
    const auto inference = runner.run(corpus);
    ASSERT_EQ(full.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE(corpus[i].name);
        expectIdenticalInference(full[i], inference[i]);
        const auto fw = synth::generateFirmware(corpus[i]);
        expectIdenticalTaint(
            full[i],
            eval::sampleOutcome(core::FitsPipeline().analyze(fw.bytes),
                                fw.spec, fw.truth, /*taint=*/true));
    }
}

TEST(CorpusRunner, TaintOutcomesCarrySampleIdentityEvenOnFailure)
{
    // Regression: the taint failure path used to discard the sample
    // index, so an errored taint outcome could not be traced back to
    // the sample that produced it.
    const auto corpus = miniCorpus();
    const auto runner = runnerWithJobs(2);
    const auto full = runner.run(corpus, /*taint=*/true);
    ASSERT_EQ(full.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i)
        EXPECT_EQ(full[i].spec.name, corpus[i].name);
    // The broken sample still failed, with no analysis to taint.
    EXPECT_FALSE(full.back().ok());
    EXPECT_FALSE(full.back().taint.has_value());
    EXPECT_FALSE(full.back().spec.name.empty());

    // A loader that throws fails only its own sample, and the failed
    // outcome still names that sample: identity is known before the
    // load.
    const std::string unloadable = corpus[1].name;
    const auto loaded = runner.run(
        corpus, /*taint=*/true, [&](const synth::SampleSpec &spec) {
            if (spec.name == unloadable)
                throw std::runtime_error("cannot read " + spec.name);
            return synth::generateFirmware(spec);
        });
    ASSERT_EQ(loaded.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE(corpus[i].name);
        EXPECT_EQ(loaded[i].spec.name, corpus[i].name);
        if (i == 1) {
            EXPECT_FALSE(loaded[i].ok());
            EXPECT_FALSE(loaded[i].taint.has_value());
            EXPECT_EQ(loaded[i].status.code(),
                      support::ErrorCode::Internal);
            EXPECT_NE(loaded[i].status.message().find("cannot read " +
                                                      unloadable),
                      std::string::npos)
                << loaded[i].status.message();
        } else {
            expectIdenticalInference(loaded[i], full[i]);
            expectIdenticalTaint(loaded[i], full[i]);
        }
    }
}

TEST(CorpusRunner, DirReportIsIdenticalAcrossJobCounts)
{
    // `fits corpus --dir`: each worker reads its own file. The report
    // must not depend on the worker count.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "fits_dir_report_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto &spec : miniCorpus()) {
        const auto fw = synth::generateFirmware(spec);
        std::ofstream out(dir / (spec.name + ".fwimg"), std::ios::binary);
        out.write(reinterpret_cast<const char *>(fw.bytes.data()),
                  static_cast<std::streamsize>(fw.bytes.size()));
    }
    std::ofstream(dir / "garbage.fwimg") << "not a firmware image";
    std::ofstream(dir / "notes.txt") << "not listed";

    eval::CorpusOptions options;
    options.dir = dir.string();
    options.taint = true;
    std::string header;
    options.onHeader = [&](const std::string &text) { header = text; };
    options.jobs = 1;
    const auto serial = eval::runCorpusReport(options);
    options.jobs = 4;
    const auto parallel = eval::runCorpusReport(options);
    fs::remove_all(dir);

    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_TRUE(parallel.ok) << parallel.error;
    EXPECT_EQ(serial.samples, 7u);
    EXPECT_EQ(header.rfind("evaluating 7 samples with 4 worker", 0), 0u)
        << header;
    EXPECT_EQ(serial.text, parallel.text);
    EXPECT_EQ(serial.diagnostics, parallel.diagnostics);
    EXPECT_EQ(serial.failed, 2u); // the opaque image and the garbage
    EXPECT_NE(serial.diagnostics.find("sample failed: garbage.fwimg: "),
              std::string::npos)
        << serial.diagnostics;
}

TEST(CorpusRunner, ThrowingTaskFailsOnlyItsOwnSample)
{
    const auto runner = runnerWithJobs(4);
    struct Slot
    {
        bool ok = false;
        std::string error;
        int value = 0;
    };
    const auto results = runner.map<Slot>(
        16,
        [](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("sample 2 crashed");
            if (i == 9)
                throw 42; // non-std exception
            Slot slot;
            slot.ok = true;
            slot.value = static_cast<int>(i) * 10;
            return slot;
        },
        [](std::size_t, const std::string &message) {
            Slot slot;
            slot.error = message;
            return slot;
        });
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2) {
            EXPECT_FALSE(results[i].ok);
            EXPECT_EQ(results[i].error, "sample 2 crashed");
        } else if (i == 9) {
            EXPECT_FALSE(results[i].ok);
            EXPECT_EQ(results[i].error, "unknown exception");
        } else {
            EXPECT_TRUE(results[i].ok);
            EXPECT_EQ(results[i].value, static_cast<int>(i) * 10);
        }
    }
}

TEST(CorpusRunner, ThrowingFailureHandlerRethrowsAfterTheBatch)
{
    // onFailure is the caller's code: if it throws too, map() neither
    // terminates the process nor drops the error. The other workers
    // finish the batch, and the exception reaches the caller.
    std::atomic<int> ran{0};
    EXPECT_THROW(runnerWithJobs(4).map<int>(
                     100,
                     [&ran](std::size_t i) {
                         ++ran;
                         if (i == 5)
                             throw std::runtime_error("item 5");
                         return 1;
                     },
                     [](std::size_t, const std::string &) -> int {
                         throw std::logic_error("handler failed");
                     }),
                 std::logic_error);
    EXPECT_EQ(ran.load(), 100);
}

TEST(CorpusRunner, StartsNoMoreWorkersThanItems)
{
    obs::Registry::instance().reset();
    obs::setEnabled(true);
    const auto results = runnerWithJobs(8).map<int>(
        2, [](std::size_t i) { return static_cast<int>(i) + 1; },
        [](std::size_t, const std::string &) { return 0; });
    const auto snap = obs::Registry::instance().snapshot();
    obs::setEnabled(false);
    obs::Registry::instance().reset();

    EXPECT_EQ(results, (std::vector<int>{1, 2}));
    EXPECT_EQ(snap.gauges.at("corpus.jobs"), 2.0);
    std::uint64_t samples = 0;
    for (std::size_t k = 0; k < 8; ++k) {
        const auto it = snap.counters.find("corpus.worker." +
                                           std::to_string(k) + ".samples");
        const std::uint64_t ran = it == snap.counters.end() ? 0 : it->second;
        if (k >= 2) {
            EXPECT_EQ(ran, 0u) << "worker " << k;
        }
        samples += ran;
    }
    EXPECT_EQ(samples, 2u);
}

// ---- Logger thread-safety ------------------------------------------

TEST(Logger, ConcurrentLoggingAndLevelChangesAreSafe)
{
    auto &logger = support::Logger::instance();
    const support::LogLevel before = logger.level();
    logger.setLevel(support::LogLevel::Error);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t, &logger] {
            for (int i = 0; i < 64; ++i) {
                // Below the threshold: exercises the concurrent
                // level check without spamming test output.
                support::logDebug("parallel-test",
                                  "worker " + std::to_string(t));
                if (i % 16 == 0) {
                    logger.setLevel(support::LogLevel::Error);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    logger.setLevel(before);
    SUCCEED();
}

// ---- DBSCAN reference oracle ---------------------------------------

/** Textbook DBSCAN that enqueues every neighbor unconditionally: the
 * reference semantics ml::dbscan's labels must reproduce. */
ml::DbscanResult
referenceDbscan(const ml::Matrix &points, const ml::DbscanConfig &config)
{
    constexpr int kUnvisited = -2;
    constexpr int kNoise = -1;
    auto regionQuery = [&](std::size_t p) {
        std::vector<std::size_t> neighbors;
        for (std::size_t q = 0; q < points.size(); ++q) {
            if (ml::distance(ml::Metric::Euclidean, points[p],
                             points[q]) <= config.eps) {
                neighbors.push_back(q);
            }
        }
        return neighbors;
    };

    ml::DbscanResult result;
    result.labels.assign(points.size(), kUnvisited);
    int cluster = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
        if (result.labels[p] != kUnvisited)
            continue;
        auto neighbors = regionQuery(p);
        if (neighbors.size() < config.minPts) {
            result.labels[p] = kNoise;
            continue;
        }
        result.labels[p] = cluster;
        std::deque<std::size_t> seeds(neighbors.begin(),
                                      neighbors.end());
        while (!seeds.empty()) {
            const std::size_t q = seeds.front();
            seeds.pop_front();
            if (result.labels[q] == kNoise)
                result.labels[q] = cluster;
            if (result.labels[q] != kUnvisited)
                continue;
            result.labels[q] = cluster;
            auto qNeighbors = regionQuery(q);
            if (qNeighbors.size() >= config.minPts) {
                for (std::size_t r : qNeighbors)
                    seeds.push_back(r);
            }
        }
        ++cluster;
    }
    result.numClusters = cluster;
    return result;
}

/** A dense blob (every point within eps of every other) is the worst
 * case for the old expansion: each expanded point re-enqueued all n
 * neighbors, growing the deque O(n^2). Two looser satellite groups and
 * five genuine noise points ride along. */
ml::Matrix
denseBlobPoints()
{
    support::Rng rng(0x5eed);
    ml::Matrix points;
    for (int i = 0; i < 120; ++i) {
        ml::Vec v(3);
        for (auto &x : v)
            x = rng.uniformReal() * 0.01;
        points.push_back(std::move(v));
    }
    for (int i = 0; i < 40; ++i) {
        ml::Vec v(3);
        v[0] = 5.0 + rng.uniformReal() * 0.2;
        v[1] = rng.uniformReal() * 0.2;
        v[2] = (i % 2 == 0) ? rng.uniformReal() * 0.2
                            : 3.0 + rng.uniformReal() * 0.2;
        points.push_back(std::move(v));
    }
    for (int i = 0; i < 5; ++i) {
        ml::Vec v(3);
        v[0] = 100.0 + 10.0 * i;
        v[1] = -50.0;
        v[2] = 7.0 * i;
        points.push_back(std::move(v));
    }
    return points;
}

ml::Matrix
uniformNoisePoints()
{
    support::Rng rng(0xd5);
    ml::Matrix points;
    for (int i = 0; i < 200; ++i) {
        ml::Vec v(4);
        for (auto &x : v)
            x = rng.uniformReal() * 10.0;
        points.push_back(std::move(v));
    }
    return points;
}

ml::Matrix
allIdenticalPoints()
{
    return ml::Matrix(300, ml::Vec{0.25, 1.0, 0.0, 0.5});
}

/** Real BFV matrices are about 3.4 % distinct rows: about 1,000 rows
 * drawn, with a skew toward the first few, from 40 distinct
 * small-integer vectors, then max-abs scaled as inference does. The
 * rarest vectors fall under minPts and stay noise. */
ml::Matrix
duplicateHeavyPoints()
{
    support::Rng rng(0xb5f);
    ml::Matrix distinct;
    for (int i = 0; i < 40; ++i) {
        ml::Vec v(9);
        for (auto &x : v)
            x = static_cast<double>(rng.uniformInt(0, 6));
        distinct.push_back(std::move(v));
    }
    ml::Matrix points;
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniformReal();
        points.push_back(distinct[static_cast<std::size_t>(
            u * u * u * static_cast<double>(distinct.size()))]);
    }
    return ml::maxAbsScale(points);
}

/** The first standard-corpus sample's custom-function BFVs, max-abs
 * scaled: the exact matrix core::inferIts hands to ml::dbscan. */
ml::Matrix
corpusSamplePoints()
{
    const auto firmware =
        synth::generateFirmware(synth::standardDataset().front());
    const auto artifact = core::FitsPipeline().analyze(firmware.bytes);
    EXPECT_TRUE(artifact.ok()) << artifact.status.toString();
    ml::Matrix custom;
    for (analysis::FnId id : artifact.behavior.customFns)
        custom.push_back(artifact.behavior.records[id].bfv.toVector());
    return ml::maxAbsScale(custom);
}

/** Unscaled small-integer rows with heavy duplication, as raw BFVs
 * collide, plus repeated all-zero and repeated constant rows. */
ml::Matrix
smallIntegerPoints()
{
    support::Rng rng(0x51a7);
    ml::Matrix distinct;
    for (int i = 0; i < 25; ++i) {
        ml::Vec v(6);
        for (auto &x : v)
            x = static_cast<double>(rng.uniformInt(0, 3));
        distinct.push_back(std::move(v));
    }
    ml::Matrix points;
    for (int i = 0; i < 240; ++i) {
        if (i % 37 == 5) {
            points.push_back(ml::Vec(6, 0.0));
        } else if (i % 41 == 7) {
            points.push_back(ml::Vec(6, 2.0));
        } else {
            const double u = rng.uniformReal();
            points.push_back(distinct[static_cast<std::size_t>(
                u * u * static_cast<double>(distinct.size()))]);
        }
    }
    return points;
}

/** Rows whose bit patterns differ while every distance agrees (+0.0
 * and -0.0: two rows each, so only together do they reach minPts 3),
 * NaN rows (within eps of nothing, themselves included), and
 * duplicated regular rows around them. */
ml::Matrix
signedZeroAndNanPoints()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const ml::Matrix rows = {
        {0.0, 1.0, 0.5},  {-0.0, 1.0, 0.5}, {nan, 1.0, 0.5},
        {1.0, 0.0, -1.0}, {0.5, 0.5, 0.5},  {nan, 1.0, 0.5},
        {1.0, 0.1, -1.0}, {2.0, 2.0, 2.0},  {-0.0, -0.0, -0.0},
        {1.0, 0.0, -1.0}, {0.0, 0.0, 0.0},  {1.0, 0.1, -1.0},
        {nan, nan, nan},  {2.0, 2.0, 2.0},  {1.0, 0.0, -1.0},
    };
    ml::Matrix points;
    for (int copy = 0; copy < 2; ++copy)
        points.insert(points.end(), rows.begin(), rows.end());
    return points;
}

/** A border row (1.875) adjacent to two clusters. Its first adjacent
 * core row in class order (2.75) belongs to the second cluster; the
 * first cluster (0.0 and 1.0) reaches it only through a later class.
 * Under eps 1 and minPts 4 it must join the first cluster. */
ml::Matrix
borderBetweenClustersPoints()
{
    return {{0.0}, {2.75}, {1.875}, {1.0}, {3.5}, {3.5}, {0.0}, {0.0}};
}

struct OracleCase
{
    const char *name;
    ml::Matrix (*points)();
    ml::DbscanConfig config;
    int minClusters;
    int noise; ///< expected noise count, or -1 to leave unchecked
};

void
expectMatchesOracle(const OracleCase &c)
{
    SCOPED_TRACE(c.name);
    const ml::Matrix points = c.points();
    ASSERT_FALSE(points.empty());
    const auto fixed = ml::dbscan(points, c.config);
    const auto reference = referenceDbscan(points, c.config);
    EXPECT_EQ(fixed.labels, reference.labels);
    EXPECT_EQ(fixed.numClusters, reference.numClusters);
    // The block kernel directly, on the rows inference would hand it.
    const auto block =
        ml::dbscan(ml::flatten(points), ml::columns(points), c.config);
    EXPECT_EQ(block.labels, reference.labels);
    EXPECT_EQ(block.numClusters, reference.numClusters);
    EXPECT_GE(fixed.numClusters, c.minClusters);
    if (c.noise >= 0) {
        EXPECT_EQ(fixed.noiseCount(), static_cast<std::size_t>(c.noise));
    }
}

TEST(Dbscan, DedupedSeedsPreserveLabelsOnDenseBlob)
{
    expectMatchesOracle({"dense blob", denseBlobPoints,
                         {0.5, 4}, 3, 5});
}

TEST(Dbscan, UniformNoiseStillMatchesReference)
{
    expectMatchesOracle({"uniform noise", uniformNoisePoints,
                         {0.8, 3}, 0, -1});
}

/** Duplicate-heavy inputs shaped like the BFV matrices inference
 * clusters. */
TEST(Dbscan, LabelsMatchReferenceOracle)
{
    const ml::DbscanConfig inferConfig = core::InferConfig{}.dbscan;
    const OracleCase cases[] = {
        {"all identical", allIdenticalPoints, inferConfig, 1, 0},
        {"duplicate heavy", duplicateHeavyPoints, inferConfig, 2, -1},
        {"corpus sample", corpusSamplePoints, inferConfig, 2, -1},
    };
    for (const auto &c : cases)
        expectMatchesOracle(c);

    // Duplicate-heavy and self-distant (NaN) rows, with minPts from 0
    // (every row core) through n (core only when adjacent to every
    // row).
    const std::pair<const char *, ml::Matrix (*)()> inputs[] = {
        {"small integers", smallIntegerPoints},
        {"signed zeros and NaN", signedZeroAndNanPoints},
        {"all identical", allIdenticalPoints},
    };
    for (const auto &[name, points] : inputs) {
        const std::size_t n = points().size();
        for (std::size_t minPts : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}, n}) {
            SCOPED_TRACE("minPts=" + std::to_string(minPts));
            expectMatchesOracle({name, points, {1.0, minPts}, 0, -1});
        }
    }
    expectMatchesOracle({"border between clusters",
                         borderBetweenClustersPoints, {1.0, 4}, 2, 0});
}

} // namespace
} // namespace fits
