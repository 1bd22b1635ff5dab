/** @file Corpus-level regression tests: the paper-shape claims the
 * bench tables report must keep holding on the deterministic
 * 59-sample dataset. These run the full corpus once and assert the
 * *relations* (not exact counts), so implementation tuning cannot
 * silently break the reproduction. */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "core/triage.hh"
#include "eval/harness.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

/** Shared corpus evaluation, computed once per test binary run. */
struct CorpusResults
{
    eval::PrecisionStats precision;
    int failures = 0;
    eval::EngineStats karonte, karonteIts, sta, staIts;

    static const CorpusResults &
    get()
    {
        static const CorpusResults results = [] {
            CorpusResults r;
            for (const auto &spec : synth::standardDataset()) {
                const auto fw = synth::generateFirmware(spec);
                const auto artifact =
                    core::FitsPipeline().analyze(fw.bytes);
                const auto outcome =
                    eval::inferenceOutcome(artifact, fw.spec, fw.truth);
                const int rank =
                    outcome.ok ? outcome.firstItsRank : -1;
                r.precision.addRank(rank);
                if (!outcome.ok || rank < 0)
                    ++r.failures;

                const auto taint =
                    eval::taintOutcome(artifact, fw.spec, fw.truth);
                if (taint.ok) {
                    r.karonte += taint.karonte;
                    r.karonteIts += taint.karonteIts;
                    r.sta += taint.sta;
                    r.staIts += taint.staIts;
                }
            }
            return r;
        }();
        return results;
    }
};

TEST(CorpusShape, InferencePrecisionNearPaper)
{
    const auto &r = CorpusResults::get();
    // Paper: 47/63/89. Accept the calibrated band.
    EXPECT_GE(r.precision.p1(), 0.40);
    EXPECT_LE(r.precision.p1(), 0.70);
    EXPECT_GE(r.precision.p2(), r.precision.p1());
    EXPECT_GE(r.precision.p3(), 0.85);
    EXPECT_GE(r.precision.p3(), r.precision.p2());
}

TEST(CorpusShape, ExactlySixFailures)
{
    EXPECT_EQ(CorpusResults::get().failures, 6); // §4.2
}

TEST(CorpusShape, ItsRunsFindMoreBugs)
{
    const auto &r = CorpusResults::get();
    EXPECT_GT(r.karonteIts.bugs, r.karonte.bugs);
    EXPECT_GT(r.staIts.bugs, r.sta.bugs);
}

TEST(CorpusShape, StaticEngineGainsDwarfSymbolicGains)
{
    // Paper: +339 vs +15 — at least 4x here.
    const auto &r = CorpusResults::get();
    const auto staGain = r.staIts.bugs - r.sta.bugs;
    const auto karonteGain = r.karonteIts.bugs - r.karonte.bugs;
    EXPECT_GE(staGain, 4 * karonteGain);
}

TEST(CorpusShape, FalsePositiveRateOrdering)
{
    // Paper's Table 6: STA worst by far; both ITS configurations at or
    // below their vanilla counterparts.
    const auto &r = CorpusResults::get();
    EXPECT_GT(r.sta.falsePositiveRate(), 0.6);
    EXPECT_LT(r.karonte.falsePositiveRate(), 0.5);
    EXPECT_LE(r.karonteIts.falsePositiveRate(),
              r.karonte.falsePositiveRate() + 0.02);
    EXPECT_LT(r.staIts.falsePositiveRate(),
              r.sta.falsePositiveRate() - 0.2);
}

TEST(CorpusShape, StaIsTheNoisiestEngine)
{
    const auto &r = CorpusResults::get();
    EXPECT_GT(r.sta.alerts, r.karonte.alerts);
    EXPECT_GT(r.staIts.alerts, r.karonteIts.alerts);
}

TEST(Triage, ItsGetterProfilesAsMemoryOperator)
{
    synth::SampleSpec spec;
    spec.profile = synth::tendaProfile();
    spec.profile.minCustomFns = 120;
    spec.profile.maxCustomFns = 160;
    spec.product = "AC9";
    spec.version = "V1";
    spec.name = "AC9-V1";
    spec.seed = 0x7a1;
    const auto fw = synth::generateFirmware(spec);
    auto unpacked = fw::unpackFirmware(fw.bytes);
    ASSERT_TRUE(unpacked);
    auto target =
        fw::selectAnalysisTarget(unpacked.value().filesystem);
    ASSERT_TRUE(target);
    const analysis::LinkedProgram linked(*target.value().main,
                                         target.value().libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);

    ASSERT_FALSE(fw.truth.itsFunctions.empty());
    const auto itsId = linked.fnIdOf(&linked.mainImage(),
                                     fw.truth.itsFunctions[0]);
    ASSERT_TRUE(itsId.has_value());
    const auto profile = core::profileFunction(pa, *itsId);
    EXPECT_GE(profile.memOps, 3); // strlen/strncmp/memcpy calls
    EXPECT_EQ(profile.execOps, 0);
    EXPECT_NE(profile.summary().find("mem:"), std::string::npos);
}

TEST(Triage, CommandHandlersAreSensitive)
{
    // At least one planted command-injection handler must profile as
    // exec-capable.
    synth::SampleSpec spec;
    spec.profile = synth::ciscoProfile();
    spec.profile.minCustomFns = 120;
    spec.profile.maxCustomFns = 160;
    spec.product = "RV130X";
    spec.version = "V1";
    spec.name = "RV130X-V1";
    spec.seed = 0x7a2;
    const auto fw = synth::generateFirmware(spec);
    auto unpacked = fw::unpackFirmware(fw.bytes);
    ASSERT_TRUE(unpacked);
    auto target =
        fw::selectAnalysisTarget(unpacked.value().filesystem);
    ASSERT_TRUE(target);
    const analysis::LinkedProgram linked(*target.value().main,
                                         target.value().libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);

    int execCapable = 0;
    for (analysis::FnId id = 0; id < linked.fnCount(); ++id) {
        if (!linked.isMainFn(id))
            continue;
        if (core::profileFunction(pa, id).execOps > 0)
            ++execCapable;
    }
    EXPECT_GE(execCapable, 1);
}

TEST(Triage, EmptyFunctionIsNotSensitive)
{
    core::OperationProfile profile;
    EXPECT_FALSE(profile.sensitive());
    EXPECT_EQ(profile.summary(), "none");
    profile.execOps = 2;
    profile.memOps = 1;
    EXPECT_TRUE(profile.sensitive());
    EXPECT_EQ(profile.summary(), "exec:2+mem:1");
}

} // namespace
} // namespace fits
