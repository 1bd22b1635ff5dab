/** @file Unit tests for constant maps, parameter inference, reaching
 * definitions (parameter dependence), and the Table-2
 * backtracker. */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/backtrack.hh"
#include "analysis/constmap.hh"
#include "analysis/function_analysis.hh"
#include "analysis/params.hh"
#include "analysis/reachdef.hh"
#include "ir/builder.hh"

namespace fits::analysis {
namespace {

using ir::BinOp;
using ir::FunctionBuilder;
using ir::Operand;

bin::BinaryImage
stringImage()
{
    bin::BinaryImage image;
    bin::Section rodata;
    rodata.name = ".rodata";
    rodata.addr = bin::kRodataBase;
    rodata.flags = bin::kSecRead;
    const char text[] = "username\0password\0\x01junk";
    rodata.bytes.assign(text, text + sizeof(text) - 1);
    image.sections.push_back(rodata);

    bin::Section data;
    data.name = ".data";
    data.addr = bin::kDataBase;
    data.flags = bin::kSecRead | bin::kSecWrite;
    data.bytes.assign(16, 0);
    // Slot at kDataBase points to "password".
    const ir::Addr pw = bin::kRodataBase + 9;
    for (std::size_t i = 0; i < bin::kPtrSize; ++i)
        data.bytes[i] = static_cast<std::uint8_t>(pw >> (8 * i));
    image.sections.push_back(data);
    return image;
}

// ---- TmpConstMap ----------------------------------------------------

TEST(ConstMap, FoldsConstChains)
{
    FunctionBuilder b;
    auto a = b.cnst(10);
    auto c = b.binop(BinOp::Mul, Operand::ofTmp(a), Operand::ofImm(4));
    auto d = b.binop(BinOp::Add, Operand::ofTmp(c), Operand::ofImm(2));
    b.ret();
    const ir::Function fn = b.build(0);
    const auto map = TmpConstMap::compute(fn, nullptr);
    EXPECT_EQ(map.valueOf(a), 10u);
    EXPECT_EQ(map.valueOf(c), 40u);
    EXPECT_EQ(map.valueOf(d), 42u);
}

TEST(ConstMap, GetIsNeverConstant)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    auto c = b.binop(BinOp::Add, Operand::ofTmp(a), Operand::ofImm(1));
    b.ret();
    const auto map = TmpConstMap::compute(b.build(0), nullptr);
    EXPECT_FALSE(map.valueOf(a).has_value());
    EXPECT_FALSE(map.valueOf(c).has_value());
}

TEST(ConstMap, MultipleDefsConflict)
{
    // Hand-build a function where t0 is written twice.
    ir::Function fn;
    fn.entry = 0;
    fn.numTmps = 1;
    ir::BasicBlock block;
    block.addr = 0;
    block.stmts.push_back(ir::Stmt::cnst(0, 1));
    block.stmts.push_back(ir::Stmt::cnst(0, 2));
    block.stmts.push_back(ir::Stmt::ret());
    fn.blocks.push_back(block);
    const auto map = TmpConstMap::compute(fn, nullptr);
    EXPECT_FALSE(map.valueOf(ir::TmpId{0}).has_value());
}

TEST(ConstMap, FoldsRodataLoadsOnly)
{
    const auto image = stringImage();
    FunctionBuilder b;
    auto roAddr = b.cnst(bin::kDataBase); // data slot -> rodata ptr
    auto notFolded = b.load(Operand::ofTmp(roAddr));
    auto roAddr2 = b.cnst(bin::kRodataBase);
    auto folded = b.load(Operand::ofTmp(roAddr2));
    b.ret();
    const auto map = TmpConstMap::compute(b.build(0), &image);
    EXPECT_FALSE(map.valueOf(notFolded).has_value()); // writable
    ASSERT_TRUE(map.valueOf(folded).has_value()); // read-only bytes
}

TEST(ConstMap, OperandOverload)
{
    FunctionBuilder b;
    auto t = b.cnst(5);
    b.ret();
    const auto map = TmpConstMap::compute(b.build(0), nullptr);
    EXPECT_EQ(map.valueOf(Operand::ofImm(9)), 9u);
    EXPECT_EQ(map.valueOf(Operand::ofTmp(t)), 5u);
}

// ---- parameter inference ---------------------------------------------

TEST(Params, ReadBeforeWriteDetected)
{
    FunctionBuilder b;
    b.get(ir::kRegR0);
    b.get(ir::kRegR2);
    b.ret();
    const ir::Function fn = b.build(0);
    const auto info = inferParams(Cfg::build(fn), fn);
    EXPECT_EQ(info.usedMask, 0b101);
    EXPECT_EQ(info.count, 3); // contiguous ABI assignment
}

TEST(Params, WriteBeforeReadNotAParam)
{
    FunctionBuilder b;
    b.put(ir::kRegR0, Operand::ofImm(7));
    b.get(ir::kRegR0);
    b.ret();
    const ir::Function fn = b.build(0);
    const auto info = inferParams(Cfg::build(fn), fn);
    EXPECT_EQ(info.count, 0);
}

TEST(Params, CallClobbersArgRegs)
{
    FunctionBuilder b;
    b.call(0x8000);
    b.get(ir::kRegR0); // return value, not a parameter
    b.ret();
    const ir::Function fn = b.build(0);
    const auto info = inferParams(Cfg::build(fn), fn);
    EXPECT_EQ(info.count, 0);
}

TEST(Params, MustAnalysisAcrossBranches)
{
    // r0 written on only one path before the read: still a parameter.
    FunctionBuilder b;
    auto writeBlk = b.newBlock();
    auto join = b.newBlock();
    auto c = b.get(ir::kRegR1);
    b.branch(Operand::ofTmp(c), writeBlk);
    b.jump(join);
    b.switchTo(writeBlk);
    b.put(ir::kRegR0, Operand::ofImm(0));
    b.jump(join);
    b.switchTo(join);
    b.get(ir::kRegR0);
    b.ret();
    const ir::Function fn = b.build(0);
    const auto info = inferParams(Cfg::build(fn), fn);
    EXPECT_TRUE(info.usedMask & 0b01);
    EXPECT_TRUE(info.usedMask & 0b10);
    EXPECT_EQ(info.count, 2);
}

// ---- reaching definitions / parameter dependence ---------------------

struct FlowFixture
{
    ir::Function fn;
    Cfg cfg;
    TmpConstMap consts;
    ReachingDefs::Result flow;

    explicit FlowFixture(ir::Function f, const bin::BinaryImage *img,
                         int numParams)
        : fn(std::move(f)), cfg(Cfg::build(fn)),
          consts(TmpConstMap::compute(fn, img)),
          flow(ReachingDefs::analyze(cfg, fn, consts, numParams))
    {
    }
};

TEST(ReachDef, ParamFlowsThroughTmpChain)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    auto c = b.binop(BinOp::Add, Operand::ofTmp(a), Operand::ofImm(1));
    b.put(ir::RegId{4}, Operand::ofTmp(c));
    auto d = b.get(ir::RegId{4});
    b.put(ir::kRetReg, Operand::ofTmp(d));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 1);
    // The final PUT depends on param 0.
    EXPECT_EQ(f.flow.stmtDeps[0][4], 0b1);
}

TEST(ReachDef, BranchDependenceMask)
{
    FunctionBuilder b;
    auto other = b.newBlock();
    auto a = b.get(ir::kRegR1);
    auto c = b.binop(BinOp::CmpEq, Operand::ofTmp(a),
                     Operand::ofImm(0));
    b.branch(Operand::ofTmp(c), other);
    b.ret();
    b.switchTo(other);
    b.ret();
    FlowFixture f(b.build(0), nullptr, 2);
    EXPECT_EQ(f.flow.branchDepMask, 0b10);
}

TEST(ReachDef, NoParamDependenceOnConstants)
{
    FunctionBuilder b;
    auto other = b.newBlock();
    auto c = b.cnst(1);
    b.branch(Operand::ofTmp(c), other);
    b.ret();
    b.switchTo(other);
    b.ret();
    FlowFixture f(b.build(0), nullptr, 2);
    EXPECT_EQ(f.flow.branchDepMask, 0);
}

TEST(ReachDef, ParamThroughConstAddressMemory)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    b.store(Operand::ofImm(0x500000), Operand::ofTmp(a));
    auto v = b.load(Operand::ofImm(0x500000));
    b.put(ir::kRetReg, Operand::ofTmp(v));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 1);
    // The load's deps include param 0 via the memory cell.
    EXPECT_EQ(f.flow.stmtDeps[0][2], 0b1);
}

TEST(ReachDef, LoopCarriedDependence)
{
    FunctionBuilder b;
    auto header = b.newBlock();
    auto body = b.newBlock();
    auto exit = b.newBlock();
    auto p = b.get(ir::kRegR0);
    b.put(ir::RegId{4}, Operand::ofTmp(p));
    b.jump(header);
    b.switchTo(header);
    auto i = b.get(ir::RegId{4});
    auto done = b.binop(BinOp::CmpEq, Operand::ofTmp(i),
                        Operand::ofImm(0));
    b.branch(Operand::ofTmp(done), exit);
    b.jump(body);
    b.switchTo(body);
    auto i2 = b.get(ir::RegId{4});
    b.put(ir::RegId{4}, Operand::ofTmp(b.binop(
                          BinOp::Sub, Operand::ofTmp(i2),
                          Operand::ofImm(1))));
    b.jump(header);
    b.switchTo(exit);
    b.ret();
    FlowFixture f(b.build(0), nullptr, 1);
    // The loop-exit branch depends on param 0 through the back edge.
    EXPECT_EQ(f.flow.stmtDeps[1][1], 0b1);
    EXPECT_EQ(f.flow.branchDepMask, 0b1);
}

TEST(ReachDef, CallArgumentsExcludeStaleParams)
{
    // A call whose arguments were never materialized must not appear
    // parameter-dependent just because arg registers still hold the
    // caller-provided values.
    FunctionBuilder b;
    b.call(0x8000);
    b.ret();
    FlowFixture f(b.build(0), nullptr, 4);
    EXPECT_EQ(f.flow.stmtDeps[0][0], 0);
}

TEST(ReachDef, CallArgumentsIncludeMaterializedParams)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    b.setArg(0, Operand::ofTmp(a));
    b.call(0x8000);
    b.ret();
    FlowFixture f(b.build(0), nullptr, 1);
    EXPECT_EQ(f.flow.stmtDeps[0][2], 0b1); // the call statement
}

TEST(ReachDef, CallReturnIsParamDependentIfArgsAre)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    b.setArg(0, Operand::ofTmp(a));
    b.call(0x8000);
    auto r = b.retVal();
    b.put(ir::kRetReg, Operand::ofTmp(r));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 1);
    // GET(r0) after the call sees the call's definition of r0, whose
    // taint came from the materialized argument.
    EXPECT_EQ(f.flow.stmtDeps[0][3], 0b1);
}

TEST(ReachDef, ConstAddressStoreReplacesEarlierStore)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    auto c = b.get(ir::kRegR1);
    b.store(Operand::ofImm(0x500000), Operand::ofTmp(a));
    b.store(Operand::ofImm(0x500000), Operand::ofTmp(c));
    auto v = b.load(Operand::ofImm(0x500000));
    b.put(ir::kRetReg, Operand::ofTmp(v));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 2);
    // The second store to the cell overwrites param 0's mask.
    EXPECT_EQ(f.flow.stmtDeps[0][4], 0b10);
}

TEST(ReachDef, UnknownStoreNeverClearsConstCell)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    auto c = b.get(ir::kRegR1);
    auto p = b.get(ir::RegId{5}); // not a constant address
    b.store(Operand::ofImm(0x500000), Operand::ofTmp(a));
    b.store(Operand::ofTmp(p), Operand::ofTmp(c));
    auto v = b.load(Operand::ofImm(0x500000));
    b.store(Operand::ofImm(0x500000), Operand::ofImm(0));
    auto w = b.load(Operand::ofImm(0x500000));
    b.put(ir::kRetReg, Operand::ofTmp(v));
    b.put(ir::RegId{4}, Operand::ofTmp(w));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 2);
    // The unknown store may alias the cell, so it adds to it...
    EXPECT_EQ(f.flow.stmtDeps[0][5], 0b11);
    // ...and a later constant store cannot clear what it may have
    // written.
    EXPECT_EQ(f.flow.stmtDeps[0][7], 0b10);
}

TEST(ReachDef, UnknownLoadReadsEveryCell)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR0);
    auto c = b.get(ir::kRegR1);
    auto p = b.get(ir::RegId{5});
    b.store(Operand::ofImm(0x500000), Operand::ofTmp(a));
    b.store(Operand::ofImm(0x500010), Operand::ofTmp(c));
    auto v = b.load(Operand::ofTmp(p));
    auto w = b.load(Operand::ofImm(0x500020));
    b.put(ir::kRetReg, Operand::ofTmp(v));
    b.put(ir::RegId{4}, Operand::ofTmp(w));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 2);
    EXPECT_EQ(f.flow.stmtDeps[0][5], 0b11);
    // A constant address nothing stored to reads no cell.
    EXPECT_EQ(f.flow.stmtDeps[0][6], 0);
}

TEST(ReachDef, IndirectCallTargetFeedsCallMask)
{
    FunctionBuilder b;
    auto a = b.get(ir::kRegR1);
    b.callIndirect(Operand::ofTmp(a));
    auto r = b.retVal();
    b.put(ir::kRetReg, Operand::ofTmp(r));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 2);
    EXPECT_EQ(f.flow.stmtDeps[0][1], 0b10);
    // The return value inherits the call's mask.
    EXPECT_EQ(f.flow.stmtDeps[0][2], 0b10);
}

TEST(ReachDef, ArgRegisterBeyondParamCountIsIndependent)
{
    FunctionBuilder b;
    auto hi = b.get(ir::kRegR2);
    auto lo = b.get(ir::kRegR1);
    b.put(ir::kRetReg, Operand::ofTmp(b.binop(
                           BinOp::Add, Operand::ofTmp(hi),
                           Operand::ofTmp(lo))));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 2);
    EXPECT_EQ(f.flow.stmtDeps[0][0], 0);
    EXPECT_EQ(f.flow.stmtDeps[0][1], 0b10);
}

TEST(ReachDef, UnreachableBlockStillGetsMasks)
{
    FunctionBuilder b;
    auto dead = b.newBlock();
    auto join = b.newBlock();
    auto a = b.get(ir::kRegR0);
    b.put(ir::RegId{4}, Operand::ofTmp(a));
    b.jump(join);
    b.switchTo(dead); // no predecessors
    b.put(ir::RegId{4}, Operand::ofImm(0));
    b.put(ir::kRetReg, Operand::ofTmp(a));
    b.jump(join);
    b.switchTo(join);
    auto v = b.get(ir::RegId{4});
    b.put(ir::kRetReg, Operand::ofTmp(v));
    b.ret();
    FlowFixture f(b.build(0), nullptr, 1);
    ASSERT_EQ(f.flow.stmtDeps.size(), 3u);
    ASSERT_EQ(f.flow.stmtDeps[dead].size(), 3u);
    // No path from the entry carries t0 into the dead block...
    EXPECT_EQ(f.flow.stmtDeps[dead][1], 0);
    // ...and its constant PUT does not hide the entry's at the join.
    EXPECT_EQ(f.flow.stmtDeps[join][0], 0b1);
}

// ---- Table-2 backtracker ---------------------------------------------

struct TrackFixture
{
    bin::BinaryImage image = stringImage();
    ir::Function fn;
    Cfg cfg;
    TmpConstMap consts;

    explicit TrackFixture(ir::Function f)
        : fn(std::move(f)), cfg(Cfg::build(fn)),
          consts(TmpConstMap::compute(fn, &image))
    {
    }

    ArgBacktracker
    tracker() const
    {
        return ArgBacktracker(image, fn, cfg, consts);
    }
};

TEST(Backtrack, ImmediatePut)
{
    FunctionBuilder b;
    b.setArg(0, Operand::ofImm(0x1234));
    b.call(0x8000);
    b.ret();
    TrackFixture f(b.build(0));
    const auto values = f.tracker().resolveArg(0, 1, 0);
    ASSERT_EQ(values.size(), 1u);
    EXPECT_EQ(values[0], 0x1234u);
}

TEST(Backtrack, ThroughTmpAndGet)
{
    FunctionBuilder b;
    auto t = b.cnst(0x4242);
    b.put(ir::RegId{4}, Operand::ofTmp(t));
    auto u = b.get(ir::RegId{4});
    b.setArg(1, Operand::ofTmp(u));
    b.call(0x8000);
    b.ret();
    TrackFixture f(b.build(0));
    const auto values = f.tracker().resolveArg(0, 4, 1);
    ASSERT_EQ(values.size(), 1u);
    EXPECT_EQ(values[0], 0x4242u);
}

TEST(Backtrack, AdditiveOffsetAccumulation)
{
    FunctionBuilder b;
    auto base = b.get(ir::kRegR0); // symbolic
    auto adj = b.binop(BinOp::Add, Operand::ofTmp(base),
                       Operand::ofImm(8));
    b.setArg(0, Operand::ofTmp(adj));
    b.call(0x8000);
    b.ret();
    TrackFixture f(b.build(0));
    // base is symbolic: no constant resolution possible.
    EXPECT_TRUE(f.tracker().resolveArg(0, 3, 0).empty());
}

TEST(Backtrack, OffsetOverConstBase)
{
    FunctionBuilder b;
    auto t = b.cnst(0x100);
    b.put(ir::RegId{4}, Operand::ofTmp(t));
    auto u = b.get(ir::RegId{4});
    auto v = b.binop(BinOp::Add, Operand::ofTmp(u),
                     Operand::ofImm(0x20));
    b.setArg(0, Operand::ofTmp(v));
    b.call(0x8000);
    b.ret();
    TrackFixture f(b.build(0));
    const auto values = f.tracker().resolveArg(0, 5, 0);
    ASSERT_EQ(values.size(), 1u);
    EXPECT_EQ(values[0], 0x120u);
}

TEST(Backtrack, MultiplePredecessorsYieldMultipleValues)
{
    FunctionBuilder b;
    auto left = b.newBlock();
    auto right = b.newBlock();
    auto join = b.newBlock();
    auto c = b.get(ir::kRegR0);
    b.branch(Operand::ofTmp(c), left);
    b.jump(right);
    b.switchTo(left);
    b.put(ir::kRegR1, Operand::ofImm(0x111));
    b.jump(join);
    b.switchTo(right);
    b.put(ir::kRegR1, Operand::ofImm(0x222));
    b.jump(join);
    b.switchTo(join);
    b.call(0x8000);
    b.ret();
    TrackFixture f(b.build(0));
    auto values = f.tracker().resolveArg(3, 0, 1);
    std::sort(values.begin(), values.end());
    ASSERT_EQ(values.size(), 2u);
    EXPECT_EQ(values[0], 0x111u);
    EXPECT_EQ(values[1], 0x222u);
}

TEST(Backtrack, AbortsAtClobberingCall)
{
    FunctionBuilder b;
    b.put(ir::kRegR0, Operand::ofImm(0x1234));
    b.call(0x9000); // clobbers r0
    b.call(0x8000); // the queried site: r0 is the previous return
    b.ret();
    TrackFixture f(b.build(0));
    EXPECT_TRUE(f.tracker().resolveArg(0, 2, 0).empty());
}

TEST(Backtrack, ClassifyRodataString)
{
    TrackFixture f([] {
        FunctionBuilder b;
        b.ret();
        return b.build(0);
    }());
    auto s = f.tracker().classifyString(bin::kRodataBase);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->text, "username");
    EXPECT_FALSE(s->viaDataSection);
}

TEST(Backtrack, ClassifyDataSlotIndirection)
{
    // PT in .data -> MT -> "password" (the paper's GOT-style case).
    TrackFixture f([] {
        FunctionBuilder b;
        b.ret();
        return b.build(0);
    }());
    auto s = f.tracker().classifyString(bin::kDataBase);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->text, "password");
    EXPECT_TRUE(s->viaDataSection);
}

TEST(Backtrack, RejectsNonPrintable)
{
    TrackFixture f([] {
        FunctionBuilder b;
        b.ret();
        return b.build(0);
    }());
    // The byte after "password\0" is 0x01: not printable.
    EXPECT_FALSE(
        f.tracker().classifyString(bin::kRodataBase + 18).has_value());
}

TEST(Backtrack, RejectsUnmappedAddress)
{
    TrackFixture f([] {
        FunctionBuilder b;
        b.ret();
        return b.build(0);
    }());
    EXPECT_FALSE(f.tracker().classifyString(0xdeadbeef).has_value());
}

} // namespace
} // namespace fits::analysis
