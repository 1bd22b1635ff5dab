/** @file Cross-analysis invariants checked over generated programs:
 * relations that must hold between the UCSE explorer, the CFG, the
 * dominator/loop analysis, and the reaching-definition results for
 * every function, regardless of shape. */

#include <gtest/gtest.h>

#include "analysis/function_analysis.hh"
#include "ir/builder.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

namespace fits::analysis {
namespace {

using ir::BinOp;
using ir::FunctionBuilder;
using ir::Operand;

class InvariantSweep : public ::testing::TestWithParam<int>
{
  protected:
    static synth::HttpdResult
    sample(int seed)
    {
        synth::SampleSpec spec;
        spec.profile = seed % 2 == 0 ? synth::netgearProfile()
                                     : synth::ciscoProfile();
        spec.profile.minCustomFns = 80;
        spec.profile.maxCustomFns = 120;
        spec.product = spec.profile.series.front();
        spec.version = "V1";
        spec.name = spec.product + "-V1";
        spec.seed = 0xabc000 + static_cast<std::uint64_t>(seed);
        return synth::generateHttpd(spec);
    }
};

TEST_P(InvariantSweep, UcseReachesOnlyCfgReachableBlocks)
{
    const auto result = sample(GetParam());
    for (const auto &fn : result.image.program.functions()) {
        const auto fa =
            FunctionAnalysis::analyze(result.image, fn);
        const auto reachable = fa.cfg.reachable();
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            if (fa.ucse.reachedBlocks[b]) {
                EXPECT_TRUE(reachable[b])
                    << "UCSE reached a CFG-unreachable block in fn "
                    << support::hex(fn.entry) << " block " << b;
            }
        }
    }
}

TEST_P(InvariantSweep, LoopBlocksAreReachableAndConsistent)
{
    const auto result = sample(GetParam());
    for (const auto &fn : result.image.program.functions()) {
        const auto fa =
            FunctionAnalysis::analyze(result.image, fn);
        const auto reachable = fa.cfg.reachable();
        // hasLoop iff some back edge exists; every loop block is
        // reachable; headers dominate their latches.
        EXPECT_EQ(fa.loops.hasLoop(), !fa.loops.backEdges.empty());
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            if (fa.loops.inLoop[b]) {
                EXPECT_TRUE(reachable[b]);
            }
            if (fa.loops.controlsLoop[b]) {
                EXPECT_TRUE(fa.loops.inLoop[b]);
            }
        }
        for (const auto &[latch, header] : fa.loops.backEdges) {
            EXPECT_TRUE(fa.loops.dominates(header, latch));
            EXPECT_TRUE(fa.loops.inLoop[header]);
            EXPECT_TRUE(fa.loops.inLoop[latch]);
        }
    }
}

TEST_P(InvariantSweep, ParamMasksStayWithinInferredParams)
{
    const auto result = sample(GetParam());
    for (const auto &fn : result.image.program.functions()) {
        const auto fa =
            FunctionAnalysis::analyze(result.image, fn);
        const std::uint8_t allowed = static_cast<std::uint8_t>(
            (1u << fa.params.count) - 1);
        for (std::size_t b = 0; b < fa.flow.stmtDeps.size(); ++b) {
            for (std::uint8_t mask : fa.flow.stmtDeps[b]) {
                EXPECT_EQ(mask & ~allowed, 0)
                    << "dependence on a non-parameter in fn "
                    << support::hex(fn.entry);
            }
        }
        EXPECT_EQ(fa.flow.branchDepMask & ~allowed, 0);
        EXPECT_EQ(fa.loopDepMask & ~allowed, 0);
        // Loop-controlling dependence is a subset of branch
        // dependence (loop exits are branches).
        EXPECT_EQ(fa.loopDepMask & ~fa.flow.branchDepMask, 0);
    }
}

TEST_P(InvariantSweep, DefUseChainsReferenceValidDefs)
{
    const auto result = sample(GetParam());
    std::size_t checked = 0;
    for (const auto &fn : result.image.program.functions()) {
        if (++checked > 40)
            break; // DDG validation is per-statement; cap the sweep
        const auto fa =
            FunctionAnalysis::analyze(result.image, fn);
        for (std::size_t b = 0; b < fa.flow.useDefs.size(); ++b) {
            for (const auto &uses : fa.flow.useDefs[b]) {
                for (std::uint32_t id : uses)
                    ASSERT_LT(id, fa.flow.defs.size());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep,
                         ::testing::Range(0, 4));

TEST(LoopShape, DoWhileLatchControls)
{
    // do { body } while (i < n): the conditional back edge lives in
    // the latch, which must be flagged as loop-controlling.
    FunctionBuilder b;
    auto body = b.newBlock();
    auto exit = b.newBlock();
    b.put(4, Operand::ofImm(0));
    b.jump(body);
    b.switchTo(body);
    auto i = b.get(4);
    b.put(4, Operand::ofTmp(b.binop(BinOp::Add, Operand::ofTmp(i),
                                    Operand::ofImm(1))));
    auto n = b.get(ir::kRegR0);
    auto again = b.binop(BinOp::CmpLt, Operand::ofTmp(i),
                         Operand::ofTmp(n));
    b.branch(Operand::ofTmp(again), body); // back edge
    b.jump(exit);
    b.switchTo(exit);
    b.ret();
    const ir::Function fn = b.build(0x100);
    const Cfg cfg = Cfg::build(fn);
    const LoopInfo info = analyzeLoops(cfg, fn);
    ASSERT_TRUE(info.hasLoop());
    EXPECT_TRUE(info.controlsLoop[1]); // the body/latch block
}

} // namespace
} // namespace fits::analysis
