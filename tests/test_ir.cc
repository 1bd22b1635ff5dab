/** @file Unit tests for the FIR intermediate representation. */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"

namespace fits::ir {
namespace {

TEST(BinOpEval, Arithmetic)
{
    EXPECT_EQ(evalBinOp(BinOp::Add, 3, 4), 7u);
    EXPECT_EQ(evalBinOp(BinOp::Sub, 3, 4),
              static_cast<std::uint64_t>(-1));
    EXPECT_EQ(evalBinOp(BinOp::Mul, 6, 7), 42u);
    EXPECT_EQ(evalBinOp(BinOp::UDiv, 42, 6), 7u);
    EXPECT_EQ(evalBinOp(BinOp::UDiv, 42, 0), 0u); // defined, not UB
    EXPECT_EQ(evalBinOp(BinOp::And, 0b1100, 0b1010), 0b1000u);
    EXPECT_EQ(evalBinOp(BinOp::Or, 0b1100, 0b1010), 0b1110u);
    EXPECT_EQ(evalBinOp(BinOp::Xor, 0b1100, 0b1010), 0b0110u);
    EXPECT_EQ(evalBinOp(BinOp::Shl, 1, 4), 16u);
    EXPECT_EQ(evalBinOp(BinOp::Shr, 16, 4), 1u);
    EXPECT_EQ(evalBinOp(BinOp::Shl, 1, 64), 0u); // shift overflow
    EXPECT_EQ(evalBinOp(BinOp::Shr, 1, 64), 0u);
}

TEST(BinOpEval, Comparisons)
{
    EXPECT_EQ(evalBinOp(BinOp::CmpEq, 5, 5), 1u);
    EXPECT_EQ(evalBinOp(BinOp::CmpEq, 5, 6), 0u);
    EXPECT_EQ(evalBinOp(BinOp::CmpNe, 5, 6), 1u);
    EXPECT_EQ(evalBinOp(BinOp::CmpLt, 5, 6), 1u);
    EXPECT_EQ(evalBinOp(BinOp::CmpLe, 6, 6), 1u);
    EXPECT_EQ(evalBinOp(BinOp::CmpGt, 7, 6), 1u);
    EXPECT_EQ(evalBinOp(BinOp::CmpGe, 6, 7), 0u);
}

TEST(BinOpEval, IsComparison)
{
    EXPECT_TRUE(isComparison(BinOp::CmpEq));
    EXPECT_TRUE(isComparison(BinOp::CmpGe));
    EXPECT_FALSE(isComparison(BinOp::Add));
    EXPECT_FALSE(isComparison(BinOp::Xor));
}

TEST(Operand, Equality)
{
    EXPECT_EQ(Operand::ofTmp(3), Operand::ofTmp(3));
    EXPECT_FALSE(Operand::ofTmp(3) == Operand::ofTmp(4));
    EXPECT_EQ(Operand::ofImm(7), Operand::ofImm(7));
    EXPECT_FALSE(Operand::ofImm(7) == Operand::ofTmp(7));
}

TEST(Operand, ToString)
{
    EXPECT_EQ(Operand::ofTmp(12).toString(), "t12");
    EXPECT_EQ(Operand::ofImm(0x40).toString(), "0x40");
}

TEST(StmtTest, TerminatorClassification)
{
    EXPECT_TRUE(Stmt::ret().isTerminator());
    EXPECT_TRUE(Stmt::jump(0x100).isTerminator());
    EXPECT_TRUE(Stmt::jumpIndirect(Operand::ofTmp(0)).isTerminator());
    // Branch is a VEX-style side exit, not a terminator.
    EXPECT_FALSE(
        Stmt::branch(Operand::ofTmp(0), 0x100).isTerminator());
    EXPECT_FALSE(Stmt::call(0x100).isTerminator());
    EXPECT_FALSE(Stmt::get(0, kRegR0).isTerminator());
}

TEST(StmtTest, DefinesTmp)
{
    EXPECT_TRUE(Stmt::get(1, kRegR0).definesTmp());
    EXPECT_TRUE(Stmt::cnst(1, 5).definesTmp());
    EXPECT_TRUE(Stmt::load(1, Operand::ofImm(8)).definesTmp());
    EXPECT_TRUE(Stmt::binop(1, BinOp::Add, Operand::ofImm(1),
                            Operand::ofImm(2))
                    .definesTmp());
    EXPECT_FALSE(Stmt::put(kRegR0, Operand::ofImm(0)).definesTmp());
    EXPECT_FALSE(Stmt::ret().definesTmp());
    EXPECT_FALSE(Stmt::call(0).definesTmp());
}

TEST(StmtTest, ToStringForms)
{
    EXPECT_EQ(Stmt::get(3, 2).toString(), "t3 = GET(r2)");
    EXPECT_EQ(Stmt::put(1, Operand::ofTmp(3)).toString(),
              "PUT(r1) = t3");
    EXPECT_EQ(Stmt::cnst(4, 16).toString(), "t4 = 0x10");
    EXPECT_EQ(Stmt::load(5, Operand::ofTmp(4)).toString(),
              "t5 = LOAD(t4)");
    EXPECT_EQ(Stmt::store(Operand::ofTmp(4), Operand::ofImm(0))
                  .toString(),
              "STORE(t4) = 0x0");
    EXPECT_EQ(Stmt::call(0x8000).toString(), "CALL 0x8000");
    EXPECT_EQ(Stmt::ret().toString(), "RET");
}

TEST(FunctionTest, StmtCountAndSize)
{
    FunctionBuilder b("f");
    b.cnst(1);
    b.cnst(2);
    b.ret();
    Function fn = b.build(0x1000);
    EXPECT_EQ(fn.stmtCount(), 3u);
    EXPECT_EQ(fn.byteSize(), 3 * kStmtSize);
}

TEST(FunctionTest, BlockIndexAt)
{
    FunctionBuilder b;
    auto second = b.newBlock();
    b.cnst(1);
    b.jump(second);
    b.switchTo(second);
    b.ret();
    Function fn = b.build(0x1000);
    ASSERT_EQ(fn.blocks.size(), 2u);
    EXPECT_EQ(fn.blockIndexAt(0x1000), 0u);
    EXPECT_EQ(fn.blockIndexAt(fn.blocks[1].addr), 1u);
    EXPECT_EQ(fn.blockIndexAt(0xdead), Function::npos);
}

TEST(ProgramTest, LookupByEntryAndContaining)
{
    Program program;
    FunctionBuilder a("a");
    a.ret();
    program.addFunction(a.build(0x1000));
    FunctionBuilder c("c");
    c.cnst(0);
    c.ret();
    program.addFunction(c.build(0x2000));

    ASSERT_NE(program.functionAt(0x1000), nullptr);
    EXPECT_EQ(program.functionAt(0x1000)->name, "a");
    EXPECT_EQ(program.functionAt(0x1500), nullptr);

    const Function *fn = program.functionContaining(0x2004);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->name, "c");
    EXPECT_EQ(program.functionContaining(0x3000), nullptr);
}

TEST(BuilderTest, SequentialLayout)
{
    FunctionBuilder b;
    b.cnst(1); // entry block: 2 stmts (incl. jump below)
    auto next = b.newBlock();
    b.jump(next);
    b.switchTo(next);
    b.ret();
    Function fn = b.build(0x400);
    ASSERT_EQ(fn.blocks.size(), 2u);
    EXPECT_EQ(fn.blocks[0].addr, 0x400u);
    EXPECT_EQ(fn.blocks[1].addr, 0x400u + 2 * kStmtSize);
}

TEST(BuilderTest, TargetPatching)
{
    FunctionBuilder b;
    auto target = b.newBlock();
    auto cond = b.cnst(1);
    b.branch(Operand::ofTmp(cond), target);
    b.ret();
    b.switchTo(target);
    b.ret();
    Function fn = b.build(0x100);
    // The branch target must equal block 1's final address.
    EXPECT_EQ(fn.blocks[0].stmts[1].target, fn.blocks[1].addr);
}

TEST(BuilderTest, EmptyBlocksArePadded)
{
    FunctionBuilder b;
    b.newBlock(); // never filled
    b.ret();
    Function fn = b.build(0x100);
    for (const auto &block : fn.blocks)
        EXPECT_FALSE(block.stmts.empty());
}

TEST(BuilderTest, AbiHelpers)
{
    FunctionBuilder b;
    b.setArg(0, Operand::ofImm(1));
    b.setArg(3, Operand::ofImm(2));
    b.call(0x8000);
    auto ret = b.retVal();
    b.put(kRetReg, Operand::ofTmp(ret));
    b.ret();
    Function fn = b.build(0);
    EXPECT_EQ(fn.blocks[0].stmts[0].reg, kRegR0);
    EXPECT_EQ(fn.blocks[0].stmts[1].reg, kRegR3);
    EXPECT_EQ(fn.blocks[0].stmts[3].kind, StmtKind::Get);
    EXPECT_EQ(fn.blocks[0].stmts[3].reg, kRetReg);
}

TEST(BuilderTest, FreshTmpsAreUnique)
{
    FunctionBuilder b;
    const auto t1 = b.cnst(0);
    const auto t2 = b.cnst(0);
    const auto t3 = b.get(kRegR0);
    EXPECT_NE(t1, t2);
    EXPECT_NE(t2, t3);
    b.ret();
    Function fn = b.build(0);
    EXPECT_EQ(fn.numTmps, 3u);
}

TEST(ValidateTest, AcceptsWellFormedFunction)
{
    FunctionBuilder b;
    auto loop = b.newBlock();
    auto exit = b.newBlock();
    b.put(4, Operand::ofImm(0));
    b.jump(loop);
    b.switchTo(loop);
    auto i = b.get(4);
    auto done = b.binop(BinOp::CmpGe, Operand::ofTmp(i),
                        Operand::ofImm(10));
    b.branch(Operand::ofTmp(done), exit);
    b.put(4, Operand::ofTmp(b.binop(BinOp::Add, Operand::ofTmp(i),
                                    Operand::ofImm(1))));
    b.jump(loop);
    b.switchTo(exit);
    b.ret();
    Function fn = b.build(0x1000);
    EXPECT_TRUE(validateFunction(fn).empty());
}

TEST(ValidateTest, RejectsUndefinedTmp)
{
    Function fn;
    fn.entry = 0x100;
    fn.numTmps = 1;
    BasicBlock block;
    block.addr = 0x100;
    block.stmts.push_back(Stmt::put(0, Operand::ofTmp(0))); // t0 undef
    block.stmts.push_back(Stmt::ret());
    fn.blocks.push_back(block);
    EXPECT_FALSE(validateFunction(fn).empty());
}

TEST(ValidateTest, RejectsTmpBeyondNumTmps)
{
    Function fn;
    fn.entry = 0x100;
    fn.numTmps = 1;
    BasicBlock block;
    block.addr = 0x100;
    block.stmts.push_back(Stmt::cnst(5, 1)); // t5 >= numTmps
    block.stmts.push_back(Stmt::ret());
    fn.blocks.push_back(block);
    EXPECT_FALSE(validateFunction(fn).empty());
}

TEST(ValidateTest, RejectsNonContiguousBlocks)
{
    Function fn;
    fn.entry = 0x100;
    BasicBlock a;
    a.addr = 0x100;
    a.stmts.push_back(Stmt::ret());
    BasicBlock b;
    b.addr = 0x200; // gap
    b.stmts.push_back(Stmt::ret());
    fn.blocks = {a, b};
    EXPECT_FALSE(validateFunction(fn).empty());
}

TEST(ValidateTest, RejectsBadBranchTarget)
{
    Function fn;
    fn.entry = 0x100;
    fn.numTmps = 1;
    BasicBlock block;
    block.addr = 0x100;
    block.stmts.push_back(Stmt::cnst(0, 1));
    block.stmts.push_back(Stmt::branch(Operand::ofTmp(0), 0x777));
    block.stmts.push_back(Stmt::ret());
    fn.blocks.push_back(block);
    EXPECT_FALSE(validateFunction(fn).empty());
}

TEST(ValidateTest, RejectsMidBlockJump)
{
    Function fn;
    fn.entry = 0x100;
    BasicBlock block;
    block.addr = 0x100;
    block.stmts.push_back(Stmt::jump(0x100));
    block.stmts.push_back(Stmt::ret()); // after a terminator
    fn.blocks.push_back(block);
    EXPECT_FALSE(validateFunction(fn).empty());
}

TEST(ValidateTest, AllowsMidBlockBranch)
{
    // Branch is a side exit; statements may follow it.
    FunctionBuilder b;
    auto other = b.newBlock();
    auto c = b.cnst(1);
    b.branch(Operand::ofTmp(c), other);
    b.cnst(2); // after the branch: legal
    b.ret();
    b.switchTo(other);
    b.ret();
    EXPECT_TRUE(validateFunction(b.build(0x100)).empty());
}

TEST(ValidateTest, RejectsBadRegister)
{
    Function fn;
    fn.entry = 0;
    fn.numTmps = 1;
    BasicBlock block;
    block.addr = 0;
    block.stmts.push_back(Stmt::get(0, 99)); // register out of range
    block.stmts.push_back(Stmt::ret());
    fn.blocks.push_back(block);
    EXPECT_FALSE(validateFunction(fn).empty());
}

TEST(PrinterTest, ContainsAddressesAndMnemonics)
{
    FunctionBuilder b("loop_fn");
    auto t = b.cnst(3);
    b.put(kRegR0, Operand::ofTmp(t));
    b.ret();
    const std::string text = printFunction(b.build(0x2000));
    EXPECT_NE(text.find("loop_fn"), std::string::npos);
    EXPECT_NE(text.find("0x2000"), std::string::npos);
    EXPECT_NE(text.find("PUT(r0)"), std::string::npos);
    EXPECT_NE(text.find("RET"), std::string::npos);
}

/** The exact text of every statement form, a branch to a later block
 * and a direct call and jump: what `fits disasm` prints. */
TEST(PrinterTest, PinsEveryDirectStatementForm)
{
    FunctionBuilder b("my_getter");
    const auto exit = b.newBlock();
    const auto arg = b.get(kRegR0);
    const auto off = b.cnst(0x40);
    const auto addr =
        b.binop(BinOp::Add, Operand::ofTmp(arg), Operand::ofTmp(off));
    const auto val = b.load(Operand::ofTmp(addr));
    b.store(Operand::ofImm(0x9000), Operand::ofTmp(val));
    b.call(0x8000);
    b.branch(Operand::ofTmp(val), exit);
    b.jump(exit);
    b.switchTo(exit);
    b.put(kRegR0, Operand::ofTmp(val));
    b.ret();
    EXPECT_EQ(printFunction(b.build(0x1000)),
              "function my_getter @ 0x1000 (2 blocks, 4 tmps)\n"
              "  block 0x1000:\n"
              "    0x1000: t0 = GET(r0)\n"
              "    0x1004: t1 = 0x40\n"
              "    0x1008: t2 = Add(t0, t1)\n"
              "    0x100c: t3 = LOAD(t2)\n"
              "    0x1010: STORE(0x9000) = t3\n"
              "    0x1014: CALL 0x8000\n"
              "    0x1018: IF (t3) GOTO 0x1020\n"
              "    0x101c: GOTO 0x1020\n"
              "  block 0x1020:\n"
              "    0x1020: PUT(r0) = t3\n"
              "    0x1024: RET\n");
}

/** A function without a name prints as `<stripped>`. */
TEST(PrinterTest, PinsStrippedName)
{
    FunctionBuilder b;
    b.ret();
    EXPECT_EQ(printFunction(b.build(0x2000)),
              "function <stripped> @ 0x2000 (1 blocks, 0 tmps)\n"
              "  block 0x2000:\n"
              "    0x2000: RET\n");
}

/** Indirect calls and jumps print their operand. */
TEST(PrinterTest, PinsIndirectForms)
{
    FunctionBuilder b("f");
    const auto target = b.get(kRegR1);
    b.callIndirect(Operand::ofTmp(target));
    b.put(kRegR0, Operand::ofImm(0x7));
    b.jumpIndirect(Operand::ofTmp(target));
    EXPECT_EQ(printFunction(b.build(0x100)),
              "function f @ 0x100 (1 blocks, 1 tmps)\n"
              "  block 0x100:\n"
              "    0x100: t0 = GET(r1)\n"
              "    0x104: CALL t0\n"
              "    0x108: PUT(r0) = 0x7\n"
              "    0x10c: GOTO t0\n");
}

} // namespace
} // namespace fits::ir
