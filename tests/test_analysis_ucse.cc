/** @file Unit tests for the under-constrained symbolic explorer, and
 * for FunctionAnalysis, which runs it only on functions holding an
 * indirect Call or Jump. */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/program_analysis.hh"
#include "analysis/ucse.hh"
#include "ir/builder.hh"

namespace fits::analysis {
namespace {

using ir::BinOp;
using ir::FunctionBuilder;
using ir::Operand;

bin::BinaryImage
imageWithTable()
{
    bin::BinaryImage image;
    // Move-assigned: GCC 12 at -O3 flags the literal assignment with
    // a false-positive -Wrestrict.
    image.name = std::string("t");
    bin::Section rodata;
    rodata.name = ".rodata";
    rodata.addr = bin::kRodataBase;
    rodata.flags = bin::kSecRead;
    rodata.bytes.assign(16, 0);
    // Two table slots: function pointers 0x5000 and 0x6000.
    rodata.bytes[0] = 0x00;
    rodata.bytes[1] = 0x50;
    rodata.bytes[4] = 0x00;
    rodata.bytes[5] = 0x60;
    image.sections.push_back(rodata);

    bin::Section data;
    data.name = ".data";
    data.addr = bin::kDataBase;
    data.flags = bin::kSecRead | bin::kSecWrite;
    data.bytes.assign(8, 0);
    data.bytes[1] = 0x70; // 0x7000 — but writable, must not fold
    image.sections.push_back(data);
    return image;
}

TEST(Ucse, ResolvesIndirectCallThroughRodataTable)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto slot = b.cnst(bin::kRodataBase);
    auto target = b.load(Operand::ofTmp(slot));
    b.callIndirect(Operand::ofTmp(target));
    b.ret();
    const ir::Function fn = b.build(0x100);
    const ir::Addr callAddr = fn.blocks[0].stmtAddr(2);

    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(fn);
    auto it = result.resolvedCalls.find(callAddr);
    ASSERT_NE(it, result.resolvedCalls.end());
    ASSERT_EQ(it->second.size(), 1u);
    EXPECT_EQ(it->second[0], 0x5000u);
}

TEST(Ucse, DoesNotFoldWritableMemory)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto slot = b.cnst(bin::kDataBase);
    auto target = b.load(Operand::ofTmp(slot));
    b.callIndirect(Operand::ofTmp(target));
    b.ret();
    const ir::Function fn = b.build(0x100);
    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(fn);
    EXPECT_TRUE(result.resolvedCalls.empty());
}

TEST(Ucse, FoldsConstantArithmetic)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto base = b.cnst(bin::kRodataBase);
    auto idx = b.cnst(1);
    auto off = b.binop(BinOp::Mul, Operand::ofTmp(idx),
                       Operand::ofImm(4));
    auto slot = b.binop(BinOp::Add, Operand::ofTmp(base),
                        Operand::ofTmp(off));
    auto target = b.load(Operand::ofTmp(slot));
    b.callIndirect(Operand::ofTmp(target));
    b.ret();
    const ir::Function fn = b.build(0x100);
    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(fn);
    ASSERT_EQ(result.resolvedCalls.size(), 1u);
    EXPECT_EQ(result.resolvedCalls.begin()->second[0], 0x6000u);
}

TEST(Ucse, ConstantBranchPrunesDeadSide)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto dead = b.newBlock();
    auto live = b.newBlock();
    auto flag = b.cnst(0);
    b.branch(Operand::ofTmp(flag), dead); // never taken
    b.jump(live);
    b.switchTo(dead);
    b.ret();
    b.switchTo(live);
    b.ret();
    const ir::Function fn = b.build(0);
    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(fn);
    EXPECT_TRUE(result.reachedBlocks[0]);
    EXPECT_FALSE(result.reachedBlocks[1]); // pruned
    EXPECT_TRUE(result.reachedBlocks[2]);
}

TEST(Ucse, SymbolicBranchExploresBothSides)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto thenBlk = b.newBlock();
    auto elseBlk = b.newBlock();
    auto c = b.get(ir::kRegR0); // under-constrained argument
    b.branch(Operand::ofTmp(c), thenBlk);
    b.jump(elseBlk);
    b.switchTo(thenBlk);
    b.ret();
    b.switchTo(elseBlk);
    b.ret();
    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(b.build(0));
    EXPECT_TRUE(result.reachedBlocks[1]);
    EXPECT_TRUE(result.reachedBlocks[2]);
}

TEST(Ucse, ArgumentsStartSymbolic)
{
    // A branch on an argument-derived comparison must fork (the
    // argument is not a constant).
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto taken = b.newBlock();
    auto arg = b.get(ir::kRegR1);
    auto cmp = b.binop(BinOp::CmpEq, Operand::ofTmp(arg),
                       Operand::ofImm(0));
    b.branch(Operand::ofTmp(cmp), taken);
    b.ret();
    b.switchTo(taken);
    b.ret();
    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(b.build(0));
    EXPECT_TRUE(result.reachedBlocks[1]);
}

TEST(Ucse, CallClobbersArgRegisters)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto taken = b.newBlock();
    b.put(ir::kRegR0, Operand::ofImm(1));
    b.call(0x9999); // some callee
    auto v = b.get(ir::kRegR0);
    b.branch(Operand::ofTmp(v), taken); // must fork: r0 unknown now
    b.ret();
    b.switchTo(taken);
    b.ret();
    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(b.build(0));
    EXPECT_TRUE(result.reachedBlocks[1]);
}

TEST(Ucse, LoopBounded)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto header = b.newBlock();
    b.jump(header);
    b.switchTo(header);
    b.jump(header); // infinite loop
    const UcseExplorer explorer(image);
    const UcseResult result = explorer.explore(b.build(0));
    EXPECT_LT(result.steps, 100u); // bounded, no hang
}

TEST(Ucse, StepBudgetExhaustion)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    for (int i = 0; i < 100; ++i)
        b.cnst(static_cast<std::uint64_t>(i));
    b.ret();
    UcseConfig config;
    config.maxSteps = 10;
    const UcseExplorer explorer(image, config);
    const UcseResult result = explorer.explore(b.build(0));
    // One block is executed atomically, so the budget check happens
    // between paths; the flag reflects the exhaustion.
    EXPECT_GE(result.steps, 10u);
}

TEST(Ucse, Deterministic)
{
    const auto image = imageWithTable();
    FunctionBuilder b;
    auto x = b.newBlock();
    auto c = b.get(ir::kRegR0);
    b.branch(Operand::ofTmp(c), x);
    b.ret();
    b.switchTo(x);
    b.ret();
    const ir::Function fn = b.build(0);
    const UcseExplorer explorer(image);
    const UcseResult a = explorer.explore(fn);
    const UcseResult bResult = explorer.explore(fn);
    EXPECT_EQ(a.steps, bResult.steps);
    EXPECT_EQ(a.reachedBlocks, bResult.reachedBlocks);
}

/** f(): calls through rodata slot 0 (0x5000), then returns. */
ir::Function
indirectCaller(ir::Addr entry)
{
    FunctionBuilder b;
    auto slot = b.cnst(bin::kRodataBase);
    auto target = b.load(Operand::ofTmp(slot));
    b.callIndirect(Operand::ofTmp(target));
    b.ret();
    return b.build(entry);
}

/** f(): a direct call and a branch, nothing to resolve. */
ir::Function
directOnly(ir::Addr entry)
{
    FunctionBuilder b;
    auto out = b.newBlock();
    b.call(0x5000);
    auto c = b.get(ir::kRegR0);
    b.branch(Operand::ofTmp(c), out);
    b.ret();
    b.switchTo(out);
    b.ret();
    return b.build(entry);
}

TEST(FunctionAnalysis, IndirectCallThroughRodataTableReachesCallGraph)
{
    auto image = imageWithTable();
    FunctionBuilder callee;
    callee.ret();
    image.program.addFunction(callee.build(0x5000));
    image.program.addFunction(indirectCaller(0x100));
    const ir::Function &caller = *image.program.functionAt(0x100);
    const ir::Addr callAddr = caller.blocks[0].stmtAddr(2);

    const auto fa = FunctionAnalysis::analyze(image, caller);
    const auto it = fa.ucse.resolvedCalls.find(callAddr);
    ASSERT_NE(it, fa.ucse.resolvedCalls.end());
    EXPECT_EQ(it->second, std::vector<ir::Addr>{0x5000});

    const std::vector<bin::BinaryImage> libs;
    const LinkedProgram linked(image, libs);
    const ProgramAnalysis pa = ProgramAnalysis::analyze(linked);
    const FnId calleeId = *linked.fnIdOf(&image, 0x5000);
    ASSERT_EQ(pa.callGraph.callerSiteCount(calleeId), 1u);
    const CallSite &site =
        pa.callGraph.sites()[pa.callGraph.sitesOfCallee(calleeId)[0]];
    EXPECT_TRUE(site.indirect);
    EXPECT_EQ(site.stmtAddr, callAddr);
}

TEST(FunctionAnalysis, ResolvedIndirectJumpAddsCfgEdge)
{
    // Block 0 jumps through rodata slot 2; only the resolved target
    // makes block 1 reachable.
    FunctionBuilder b;
    auto slot = b.cnst(bin::kRodataBase + 2 * bin::kPtrSize);
    auto target = b.load(Operand::ofTmp(slot));
    b.jumpIndirect(Operand::ofTmp(target));
    b.switchTo(b.newBlock());
    b.ret();
    const ir::Function fn = b.build(0x100);
    const ir::Addr jumpAddr = fn.blocks[0].stmtAddr(2);

    auto image = imageWithTable();
    auto &rodata = image.sections[0].bytes;
    for (std::size_t i = 0; i < bin::kPtrSize; ++i) {
        rodata[2 * bin::kPtrSize + i] =
            static_cast<std::uint8_t>(fn.blocks[1].addr >> (8 * i));
    }

    const auto fa = FunctionAnalysis::analyze(image, fn);
    const auto it = fa.ucse.resolvedJumps.find(jumpAddr);
    ASSERT_NE(it, fa.ucse.resolvedJumps.end());
    EXPECT_EQ(it->second, std::vector<ir::Addr>{fn.blocks[1].addr});
    const auto succs = fa.cfg.succs(0);
    EXPECT_NE(std::find(succs.begin(), succs.end(), 1u), succs.end());
    EXPECT_TRUE(fa.cfg.reachable()[1]);
}

TEST(FunctionAnalysis, DeadlineIsCheckedWithOrWithoutIndirectSite)
{
    const auto image = imageWithTable();
    const ir::Function indirect = indirectCaller(0x100);
    const ir::Function direct = directOnly(0x200);
    ir::Function empty;
    empty.entry = 0x300;

    UcseConfig expired;
    expired.deadline = support::Deadline::afterMs(0);
    EXPECT_TRUE(
        FunctionAnalysis::analyze(image, indirect, expired)
            .ucse.deadlineExpired);
    EXPECT_TRUE(FunctionAnalysis::analyze(image, direct, expired)
                    .ucse.deadlineExpired);
    EXPECT_FALSE(FunctionAnalysis::analyze(image, empty, expired)
                     .ucse.deadlineExpired);

    // A zero step budget stops the explorer before its deadline check,
    // so no function reports expiry; with no deadline none does. The
    // skipped functions agree with what the explorer reports.
    UcseConfig noSteps = expired;
    noSteps.maxSteps = 0;
    const ir::Function *const fns[] = {&indirect, &direct, &empty};
    for (const UcseConfig &config : {expired, noSteps, UcseConfig{}}) {
        for (const ir::Function *fn : fns) {
            const auto fa = FunctionAnalysis::analyze(image, *fn, config);
            const auto full = UcseExplorer(image, config).explore(*fn);
            EXPECT_EQ(fa.ucse.deadlineExpired, full.deadlineExpired)
                << "fn " << fn->entry << ", max steps "
                << config.maxSteps;
            EXPECT_EQ(fa.ucse.resolvedCalls, full.resolvedCalls);
            EXPECT_EQ(fa.ucse.resolvedJumps, full.resolvedJumps);
        }
    }
    EXPECT_FALSE(FunctionAnalysis::analyze(image, direct, noSteps)
                     .ucse.deadlineExpired);
}

} // namespace
} // namespace fits::analysis
