/** @file End-to-end integration tests: raw firmware bytes through the
 * full FITS pipeline and all four taint-engine configurations. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.hh"
#include "eval/harness.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

synth::SampleSpec
spec(const synth::VendorProfile &profile, std::uint64_t seed)
{
    synth::SampleSpec s;
    s.profile = profile;
    s.profile.minCustomFns = 150;
    s.profile.maxCustomFns = 220;
    s.product = s.profile.series.front();
    s.version = "V1";
    s.name = s.product + "-V1";
    s.seed = seed;
    return s;
}

TEST(PipelineIntegration, EndToEndSuccess)
{
    const auto fw =
        synth::generateFirmware(spec(synth::netgearProfile(), 0xf00));
    const core::FitsPipeline pipeline;
    const auto result = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(result.ok()) << result.status.toString();
    EXPECT_GT(result.numFunctions, 100u);
    EXPECT_GT(result.binaryBytes, 0u);
    EXPECT_FALSE(result.inference.ranking.empty());
    EXPECT_GT(result.inference.numAnchors, 10u);
    EXPECT_GT(result.analysisMs, 0.0);
}

TEST(PipelineIntegration, ItsRanksHighAcrossVendors)
{
    // Full-size binaries reach the paper's top-3 guarantee; the
    // miniature test profiles used elsewhere shift the feature maxima
    // slightly, so this test runs on the real vendor profiles.
    const synth::VendorProfile profiles[] = {
        synth::netgearProfile(), synth::dlinkProfile(),
        synth::tplinkProfile(), synth::tendaProfile(),
        synth::ciscoProfile()};
    for (std::uint64_t i = 0; i < 5; ++i) {
        synth::SampleSpec s;
        s.profile = profiles[i];
        s.product = s.profile.series.front();
        s.version = "V1";
        s.name = s.product + "-V1";
        s.seed = 0x5000 + i;
        const auto fw = synth::generateFirmware(s);
        const auto outcome = eval::sampleOutcome(
            core::FitsPipeline().analyze(fw.bytes), fw.spec, fw.truth);
        ASSERT_TRUE(outcome.ok())
            << profiles[i].vendor << ": " << outcome.status.toString();
        EXPECT_GE(outcome.firstItsRank, 1) << profiles[i].vendor;
        EXPECT_LE(outcome.firstItsRank, 3) << profiles[i].vendor;
    }
}

TEST(PipelineIntegration, UnpackFailureReported)
{
    auto s = spec(synth::dlinkProfile(), 0x1);
    s.failure = synth::SampleSpec::FailureMode::OpaqueEncoding;
    s.profile.encoding = fw::Encoding::Opaque;
    const auto firmware = synth::generateFirmware(s);
    const core::FitsPipeline pipeline;
    const auto result = pipeline.analyze(firmware.bytes);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.stage(), support::Stage::Unpack);
}

TEST(PipelineIntegration, SelectFailureReported)
{
    auto s = spec(synth::tendaProfile(), 0x2);
    s.failure = synth::SampleSpec::FailureMode::NoNetworkBinary;
    const auto firmware = synth::generateFirmware(s);
    const core::FitsPipeline pipeline;
    const auto result = pipeline.analyze(firmware.bytes);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.stage(), support::Stage::Select);
}

TEST(PipelineIntegration, StructOffsetDesignYieldsNoIts)
{
    auto s = spec(synth::tplinkProfile(), 0x3);
    s.failure = synth::SampleSpec::FailureMode::StructOffset;
    const auto firmware = synth::generateFirmware(s);
    const auto outcome = eval::sampleOutcome(
        core::FitsPipeline().analyze(firmware.bytes), firmware.spec,
        firmware.truth);
    ASSERT_TRUE(outcome.ok()) << outcome.status.toString();
    // The pipeline runs, but nothing it ranks is a true ITS.
    EXPECT_EQ(outcome.firstItsRank, -1);
}

TEST(PipelineIntegration, DeterministicAcrossRuns)
{
    const auto fw =
        synth::generateFirmware(spec(synth::tendaProfile(), 0x77));
    const core::FitsPipeline pipeline;
    const auto a = pipeline.analyze(fw.bytes);
    const auto b = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.inference.ranking.size(), b.inference.ranking.size());
    for (std::size_t i = 0; i < a.inference.ranking.size(); ++i) {
        EXPECT_EQ(a.inference.ranking[i].entry,
                  b.inference.ranking[i].entry);
        EXPECT_DOUBLE_EQ(a.inference.ranking[i].score,
                         b.inference.ranking[i].score);
    }
}

TEST(TaintIntegration, EngineRelationsHoldEndToEnd)
{
    const auto fw = synth::generateFirmware(
        spec(synth::netgearProfile(), 0x9001));
    const auto sample = eval::sampleOutcome(
        core::FitsPipeline().analyze(fw.bytes), fw.spec, fw.truth,
        /*taint=*/true);
    ASSERT_TRUE(sample.taint) << sample.status.toString();
    const auto &outcome = *sample.taint;
    const auto &staCts =
        outcome[eval::taintRunIndex(eval::TaintEngine::Sta, false)];
    const auto &staWithIts =
        outcome[eval::taintRunIndex(eval::TaintEngine::Sta, true)];

    // The paper's structural claims, per sample:
    for (std::size_t r = 0; r < eval::kTaintRuns.size(); ++r) {
        const eval::TaintRun &run = eval::kTaintRuns[r];
        SCOPED_TRACE(run.key);
        //  - ITS-augmented runs find supersets of the vanilla runs;
        const auto &cts = outcome[eval::taintRunIndex(run.engine, false)];
        EXPECT_TRUE(std::includes(outcome[r].bugs.begin(),
                                  outcome[r].bugs.end(), cts.bugs.begin(),
                                  cts.bugs.end()));
        //  - STA-ITS dominates every configuration in bugs found;
        EXPECT_GE(staWithIts.stats.bugs, outcome[r].stats.bugs);
        //  - STA's false-positive rate is the worst of the four.
        EXPECT_GE(staCts.stats.falsePositiveRate(),
                  outcome[r].stats.falsePositiveRate());
    }
}

TEST(TaintIntegration, AlertsOnlyAtPlantedSites)
{
    const auto fw = synth::generateFirmware(
        spec(synth::tendaProfile(), 0x9002));
    const auto sample = eval::sampleOutcome(
        core::FitsPipeline().analyze(fw.bytes), fw.spec, fw.truth,
        /*taint=*/true);
    ASSERT_TRUE(sample.taint);
    const auto &outcome = *sample.taint;
    // Every bug the engines report is a planted real-bug site.
    for (const auto &run : outcome) {
        for (ir::Addr site : run.bugs) {
            const synth::SinkSite *s = fw.truth.siteAt(site);
            ASSERT_NE(s, nullptr);
            EXPECT_TRUE(s->isBug());
        }
    }
}

} // namespace
} // namespace fits
