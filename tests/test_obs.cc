/**
 * @file
 * Tests for the fits::obs observability subsystem: instrument
 * semantics, registry behavior, concurrent updates, span nesting, the
 * JSON exporter, and the two system-level guarantees the pipeline
 * instrumentation relies on — per-stage spans summing to no more than
 * the enclosing span, and bit-identical analysis output with
 * collection on or off.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hh"
#include "obs/metrics.hh"
#include "support/thread_pool.hh"
#include "synth/firmware_gen.hh"
#include "taint/common.hh"
#include "taint/sta.hh"

namespace {

using namespace fits;

/** Every obs test starts from a zeroed registry and disabled
 * collection, and leaves collection disabled (the same process may
 * run other suites afterwards, e.g. under the TSan filter). */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setEnabled(false);
        obs::Registry::instance().reset();
    }

    void
    TearDown() override
    {
        obs::setEnabled(false);
        obs::Registry::instance().reset();
    }
};

using ObsCounter = ObsTest;
using ObsGauge = ObsTest;
using ObsHistogram = ObsTest;
using ObsTimer = ObsTest;
using ObsRegistry = ObsTest;
using ObsConcurrent = ObsTest;
using ObsSpan = ObsTest;
using ObsPipeline = ObsTest;

// ---- instrument semantics ---------------------------------------------

TEST_F(ObsCounter, AddAndReset)
{
    obs::Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsGauge, LastWriteWins)
{
    obs::Gauge gauge;
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    gauge.set(-1.25);
    EXPECT_EQ(gauge.value(), -1.25);
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0.0);
}

TEST_F(ObsHistogram, BucketPlacementAndOverflow)
{
    obs::Histogram hist({1.0, 10.0, 100.0});
    hist.observe(0.5);   // bucket 0 (<= 1)
    hist.observe(1.0);   // bucket 0 (inclusive upper bound)
    hist.observe(5.0);   // bucket 1
    hist.observe(100.0); // bucket 2
    hist.observe(999.0); // overflow
    const auto counts = hist.bucketCounts();
    ASSERT_EQ(counts.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(hist.count(), 5u);
    EXPECT_NEAR(hist.sum(), 1105.5, 1e-3);

    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.sum(), 0.0);
    for (auto c : hist.bucketCounts())
        EXPECT_EQ(c, 0u);
}

TEST_F(ObsTimer, RecordsCountTotalAndPeak)
{
    obs::TimerStat timer;
    timer.record(1'000'000);  // 1 ms
    timer.record(3'000'000);  // 3 ms
    timer.record(2'000'000);  // 2 ms
    EXPECT_EQ(timer.count(), 3u);
    EXPECT_NEAR(timer.totalMs(), 6.0, 1e-9);
    EXPECT_NEAR(timer.maxMs(), 3.0, 1e-9);
    timer.reset();
    EXPECT_EQ(timer.count(), 0u);
    EXPECT_EQ(timer.totalMs(), 0.0);
}

// ---- registry ----------------------------------------------------------

TEST_F(ObsRegistry, FindOrCreateReturnsStableReferences)
{
    auto &reg = obs::Registry::instance();
    obs::Counter &a = reg.counter("stable.counter");
    a.add(7);
    // Registering more instruments must not invalidate `a`.
    for (int i = 0; i < 100; ++i)
        reg.counter("churn." + std::to_string(i));
    obs::Counter &b = reg.counter("stable.counter");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 7u);
}

TEST_F(ObsRegistry, HelpersAreNoOpsWhileDisabled)
{
    ASSERT_FALSE(obs::enabled());
    obs::addCounter("disabled.counter", 5);
    obs::setGauge("disabled.gauge", 1.0);
    obs::observe("disabled.hist", 1.0);
    const auto snap = obs::Registry::instance().snapshot();
    EXPECT_EQ(snap.counters.count("disabled.counter"), 0u);
    EXPECT_EQ(snap.gauges.count("disabled.gauge"), 0u);
    EXPECT_EQ(snap.histograms.count("disabled.hist"), 0u);
}

TEST_F(ObsRegistry, SnapshotReflectsEnabledWrites)
{
    obs::setEnabled(true);
    obs::addCounter("snap.counter", 3);
    obs::setGauge("snap.gauge", 2.5);
    obs::observe("snap.hist", 7.0);
    const auto snap = obs::Registry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("snap.counter"), 3u);
    EXPECT_EQ(snap.gauges.at("snap.gauge"), 2.5);
    EXPECT_EQ(snap.histograms.at("snap.hist").count, 1u);
    EXPECT_NEAR(snap.histograms.at("snap.hist").sum, 7.0, 1e-6);
}

// Minimal JSON well-formedness checker (objects, arrays, strings,
// numbers, literals) — enough to prove toJson() emits a document any
// real parser accepts, without pulling in a JSON dependency.
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text)
        : text_(text)
    {
    }

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (text_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

TEST_F(ObsRegistry, ToJsonIsWellFormed)
{
    obs::setEnabled(true);
    obs::addCounter("json.counter", 9);
    obs::setGauge("json.gauge", -0.5);
    obs::observe("json.hist", 12.0);
    obs::Registry::instance().timer("json.timer").record(1'500'000);
    // Names with JSON-hostile characters must be escaped.
    obs::addCounter("json.\"quoted\"\\slash\n", 1);

    const std::string json = obs::Registry::instance().toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"json.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"json.timer\""), std::string::npos);
}

// ---- concurrency -------------------------------------------------------

TEST_F(ObsConcurrent, ParallelIncrementsSumExactly)
{
    obs::setEnabled(true);
    constexpr std::size_t kTasks = 16;
    constexpr std::size_t kPerTask = 20'000;
    auto &reg = obs::Registry::instance();
    {
        support::ThreadPool pool(4);
        for (std::size_t t = 0; t < kTasks; ++t) {
            pool.submit([&reg] {
                // Mix pre-resolved and name-resolved updates, as the
                // engines and thread pool do.
                obs::Counter &fast = reg.counter("conc.fast");
                for (std::size_t i = 0; i < kPerTask; ++i) {
                    fast.add();
                    obs::addCounter("conc.slow");
                    obs::observe("conc.hist", 1.0);
                }
            });
        }
        pool.wait();
    }
    EXPECT_EQ(reg.counter("conc.fast").value(), kTasks * kPerTask);
    EXPECT_EQ(reg.counter("conc.slow").value(), kTasks * kPerTask);
    EXPECT_EQ(reg.histogram("conc.hist").count(), kTasks * kPerTask);
}

TEST_F(ObsConcurrent, SnapshotWhileWritingIsSafeAndMonotone)
{
    obs::setEnabled(true);
    auto &reg = obs::Registry::instance();
    std::atomic<bool> stop{false};
    std::uint64_t lastSeen = 0;
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const auto snap = reg.snapshot();
            const auto it = snap.counters.find("race.counter");
            if (it != snap.counters.end()) {
                EXPECT_GE(it->second, lastSeen);
                lastSeen = it->second;
            }
        }
    });
    {
        support::ThreadPool pool(4);
        for (int t = 0; t < 8; ++t) {
            pool.submit([&reg] {
                for (int i = 0; i < 50'000; ++i)
                    reg.counter("race.counter").add();
            });
        }
        pool.wait();
    }
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_EQ(reg.counter("race.counter").value(), 8u * 50'000u);
}

// ---- scoped spans ------------------------------------------------------

TEST_F(ObsSpan, NestsPerThread)
{
    obs::setEnabled(true);
    obs::ScopedTimer outer("outer");
    EXPECT_EQ(outer.path(), "outer");
    {
        obs::ScopedTimer inner("inner");
        EXPECT_EQ(inner.path(), "outer/inner");
        obs::ScopedTimer leaf("leaf");
        EXPECT_EQ(leaf.path(), "outer/inner/leaf");
    }
    obs::ScopedTimer sibling("sibling");
    EXPECT_EQ(sibling.path(), "outer/sibling");
}

TEST_F(ObsSpan, StopRecordsOnceAndReturnsElapsed)
{
    obs::setEnabled(true);
    obs::ScopedTimer timer("span.once");
    const double first = timer.stopMs();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(timer.stopMs(), first); // idempotent
    const auto snap = obs::Registry::instance().snapshot();
    ASSERT_EQ(snap.timers.count("span.once"), 1u);
    EXPECT_EQ(snap.timers.at("span.once").count, 1u);
}

TEST_F(ObsSpan, MeasuresButDoesNotRecordWhileDisabled)
{
    ASSERT_FALSE(obs::enabled());
    obs::ScopedTimer timer("span.disabled");
    EXPECT_GE(timer.stopMs(), 0.0); // measurement still works
    const auto snap = obs::Registry::instance().snapshot();
    EXPECT_EQ(snap.timers.count("span.disabled"), 0u);
}

TEST_F(ObsSpan, ThreadsKeepIndependentStacks)
{
    obs::setEnabled(true);
    obs::ScopedTimer outer("main.outer");
    std::string otherPath;
    std::thread worker([&otherPath] {
        // A fresh thread must not inherit this thread's span stack.
        obs::ScopedTimer span("worker.span");
        otherPath = span.path();
    });
    worker.join();
    EXPECT_EQ(otherPath, "worker.span");
}

// ---- pipeline integration ----------------------------------------------

synth::GeneratedFirmware
smallSample()
{
    synth::SampleSpec spec;
    spec.profile = synth::tendaProfile();
    spec.profile.minCustomFns = 40;
    spec.profile.maxCustomFns = 60;
    spec.product = "AC6";
    spec.version = "V1";
    spec.name = "obs-sample";
    spec.seed = 0x0b5;
    return synth::generateFirmware(spec);
}

TEST_F(ObsPipeline, StageSpansNestUnderPipelineAndSumBelowTotal)
{
    obs::setEnabled(true);
    const auto fw = smallSample();
    const core::FitsPipeline pipeline;
    const auto artifact = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(artifact.ok()) << artifact.status.toString();

    const auto snap = obs::Registry::instance().snapshot();
    const char *stages[] = {"pipeline/unpack", "pipeline/select",
                            "pipeline/lift",   "pipeline/ucse",
                            "pipeline/bfv",    "pipeline/infer"};
    ASSERT_EQ(snap.timers.count("pipeline"), 1u);
    double stageSum = 0.0;
    for (const char *stage : stages) {
        ASSERT_EQ(snap.timers.count(stage), 1u)
            << stage << " span missing";
        stageSum += snap.timers.at(stage).totalMs;
    }
    // Per-stage spans cover disjoint stretches of the pipeline span,
    // so their sum cannot exceed the total (allow scheduling noise).
    EXPECT_LE(stageSum, snap.timers.at("pipeline").totalMs + 1.0);
    // Inference keeps its two sub-spans, and analysisMs is the
    // pipeline span's own measurement.
    EXPECT_EQ(snap.timers.count("pipeline/infer/cluster"), 1u);
    EXPECT_EQ(snap.timers.count("pipeline/infer/rank"), 1u);
    EXPECT_NEAR(artifact.analysisMs, snap.timers.at("pipeline").totalMs,
                1e-3);

    // A failed run counts under the stage its status names, once as a
    // failure and once as an error.
    using FailureMode = synth::SampleSpec::FailureMode;
    const std::pair<FailureMode, std::string> failures[] = {
        {FailureMode::OpaqueEncoding, "unpack"},
        {FailureMode::NoNetworkBinary, "select"}};
    for (const auto &[mode, stage] : failures) {
        auto spec = fw.spec;
        spec.failure = mode;
        if (mode == FailureMode::OpaqueEncoding)
            spec.profile.encoding = fw::Encoding::Opaque;
        obs::Registry::instance().reset();
        const auto failed =
            pipeline.analyze(synth::generateFirmware(spec).bytes);
        ASSERT_FALSE(failed.ok()) << stage;
        EXPECT_EQ(support::stageName(failed.status.stage()), stage);
        const auto counters =
            obs::Registry::instance().snapshot().counters;
        const auto count = [&](const std::string &name) {
            const auto it = counters.find(name);
            return it == counters.end() ? 0u : it->second;
        };
        EXPECT_EQ(count("pipeline.runs"), 1u) << stage;
        EXPECT_EQ(count("pipeline.ok"), 0u) << stage;
        EXPECT_EQ(count("pipeline.failures." + stage), 1u);
        EXPECT_EQ(count("pipeline.errors." + stage), 1u);
    }
}

TEST_F(ObsPipeline, OutputsAreIdenticalWithMetricsOnAndOff)
{
    const auto fw = smallSample();
    const core::FitsPipeline pipeline;

    obs::setEnabled(false);
    const auto off = pipeline.analyze(fw.bytes);
    obs::setEnabled(true);
    const auto on = pipeline.analyze(fw.bytes);

    ASSERT_EQ(off.ok(), on.ok());
    ASSERT_EQ(off.inference.ranking.size(),
              on.inference.ranking.size());
    for (std::size_t i = 0; i < off.inference.ranking.size(); ++i) {
        EXPECT_EQ(off.inference.ranking[i].entry,
                  on.inference.ranking[i].entry);
        EXPECT_EQ(off.inference.ranking[i].score,
                  on.inference.ranking[i].score);
    }

    // Same check on the taint side: alert streams must match.
    ASSERT_TRUE(off.hasAnalysis());
    const taint::StaEngine sta;
    obs::setEnabled(false);
    const auto reportOff =
        sta.run(*off.analysis, taint::classicalTaintSources());
    obs::setEnabled(true);
    const auto reportOn =
        sta.run(*on.analysis, taint::classicalTaintSources());
    ASSERT_EQ(reportOff.alerts.size(), reportOn.alerts.size());
    for (std::size_t i = 0; i < reportOff.alerts.size(); ++i) {
        EXPECT_EQ(reportOff.alerts[i].sinkSite,
                  reportOn.alerts[i].sinkSite);
        EXPECT_EQ(reportOff.alerts[i].sinkName,
                  reportOn.alerts[i].sinkName);
    }
}

TEST_F(ObsPipeline, ExportToFileRoundTrips)
{
    obs::setEnabled(true);
    obs::addCounter("export.counter", 4);
    const std::string path = ::testing::TempDir() + "obs_export.json";
    ASSERT_TRUE(obs::Registry::instance().exportToFile(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"export.counter\""), std::string::npos);
}

// ---- taint alert ordering (regression) ---------------------------------

TEST_F(ObsTest, SortAlertsOrdersByStableKey)
{
    using taint::Alert;
    std::vector<Alert> alerts(3);
    alerts[0].imageIndex = 1;
    alerts[0].sinkSite = 0x100;
    alerts[1].imageIndex = 0;
    alerts[1].sinkSite = 0x200;
    alerts[1].sinkName = "strcpy";
    alerts[2].imageIndex = 0;
    alerts[2].sinkSite = 0x200;
    alerts[2].sinkName = "memcpy";
    taint::sortAlerts(alerts);
    EXPECT_EQ(alerts[0].imageIndex, 0u);
    EXPECT_EQ(alerts[0].sinkName, "memcpy"); // name breaks the tie
    EXPECT_EQ(alerts[1].sinkName, "strcpy");
    EXPECT_EQ(alerts[2].imageIndex, 1u);
}

} // namespace
