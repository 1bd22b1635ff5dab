/** @file Corpus-level regression tests: the paper-shape claims the
 * bench tables report must keep holding on the deterministic
 * 59-sample dataset. These run the full corpus once and assert the
 * *relations* (not exact counts), so implementation tuning cannot
 * silently break the reproduction. */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "core/triage.hh"
#include "eval/corpus_runner.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

using eval::TaintEngine;

/** Shared corpus evaluation, computed once per test binary run. */
struct CorpusResults
{
    eval::PrecisionStats precision;
    int failures = 0;
    eval::TaintTotals taint;

    const eval::EngineStats &
    run(TaintEngine engine, bool withIts) const
    {
        return taint.runs[eval::taintRunIndex(engine, withIts)];
    }

    static const CorpusResults &
    get()
    {
        static const CorpusResults results = [] {
            CorpusResults r;
            for (const auto &outcome : eval::CorpusRunner().run(
                     synth::standardDataset(), /*taint=*/true)) {
                const int rank = outcome.ok() ? outcome.firstItsRank : -1;
                r.precision.addRank(rank);
                if (rank < 0)
                    ++r.failures;
                if (outcome.taint)
                    r.taint += *outcome.taint;
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
    for (const auto engine : {TaintEngine::Karonte, TaintEngine::Sta})
        EXPECT_GT(r.run(engine, true).bugs, r.run(engine, false).bugs);
}

TEST(CorpusShape, StaticEngineGainsDwarfSymbolicGains)
{
    // Paper: +339 vs +15 — at least 4x here.
    const auto &r = CorpusResults::get();
    const auto gain = [&](TaintEngine engine) {
        return r.run(engine, true).bugs - r.run(engine, false).bugs;
    };
    EXPECT_GE(gain(TaintEngine::Sta), 4 * gain(TaintEngine::Karonte));
}

TEST(CorpusShape, FalsePositiveRateOrdering)
{
    // Paper's Table 6: STA worst by far; both ITS configurations at or
    // below their vanilla counterparts.
    const auto &r = CorpusResults::get();
    const auto fpr = [&](TaintEngine engine, bool withIts) {
        return r.run(engine, withIts).falsePositiveRate();
    };
    EXPECT_GT(fpr(TaintEngine::Sta, false), 0.6);
    EXPECT_LT(fpr(TaintEngine::Karonte, false), 0.5);
    EXPECT_LE(fpr(TaintEngine::Karonte, true),
              fpr(TaintEngine::Karonte, false) + 0.02);
    EXPECT_LT(fpr(TaintEngine::Sta, true),
              fpr(TaintEngine::Sta, false) - 0.2);
}

TEST(CorpusShape, StaIsTheNoisiestEngine)
{
    const auto &r = CorpusResults::get();
    for (const bool withIts : {false, true}) {
        EXPECT_GT(r.run(TaintEngine::Sta, withIts).alerts,
                  r.run(TaintEngine::Karonte, withIts).alerts);
    }
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
