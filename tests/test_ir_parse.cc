/** @file Unit and property tests for the IR text parser: hand-written
 * fixtures, error reporting, and the print/parse round trip over
 * generated programs. */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/parse.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"
#include "synth/firmware_gen.hh"

namespace fits::ir {
namespace {

TEST(Parse, HandWrittenFixture)
{
    const std::string text = R"(
function my_getter @ 0x1000 (2 blocks, 4 tmps)
  block 0x1000:
    0x1000: t0 = GET(r0)
    0x1004: t1 = 0x40
    0x1008: t2 = Add(t0, t1)
    0x100c: t3 = LOAD(t2)
    0x1010: IF (t3) GOTO 0x1018
    0x1014: GOTO 0x1018
  block 0x1018:
    0x1018: PUT(r0) = t3
    0x101c: RET
)";
    auto result = parseFunction(text);
    ASSERT_TRUE(result) << result.errorMessage();
    const Function &fn = result.value();
    EXPECT_EQ(fn.name, "my_getter");
    EXPECT_EQ(fn.entry, 0x1000u);
    ASSERT_EQ(fn.blocks.size(), 2u);
    EXPECT_EQ(fn.blocks[0].stmts.size(), 6u);
    EXPECT_EQ(fn.blocks[0].stmts[2].kind, StmtKind::Binop);
    EXPECT_EQ(fn.blocks[0].stmts[2].op, BinOp::Add);
    EXPECT_EQ(fn.blocks[0].stmts[4].kind, StmtKind::Branch);
    EXPECT_EQ(fn.blocks[0].stmts[4].target, 0x1018u);
    EXPECT_EQ(fn.blocks[1].stmts[1].kind, StmtKind::Ret);
    EXPECT_EQ(fn.numTmps, 4u);
    EXPECT_TRUE(validateFunction(fn).empty());
}

TEST(Parse, StrippedNameBecomesEmpty)
{
    const std::string text =
        "function <stripped> @ 0x2000 (1 blocks, 0 tmps)\n"
        "  block 0x2000:\n"
        "    0x2000: RET\n";
    auto result = parseFunction(text);
    ASSERT_TRUE(result);
    EXPECT_TRUE(result.value().name.empty());
}

TEST(Parse, IndirectForms)
{
    const std::string text =
        "function f @ 0x100 (1 blocks, 1 tmps)\n"
        "  block 0x100:\n"
        "    0x100: t0 = GET(r1)\n"
        "    0x104: CALL t0\n"
        "    0x108: GOTO t0\n";
    auto result = parseFunction(text);
    ASSERT_TRUE(result) << result.errorMessage();
    const auto &stmts = result.value().blocks[0].stmts;
    EXPECT_EQ(stmts[1].kind, StmtKind::Call);
    EXPECT_TRUE(stmts[1].indirect);
    EXPECT_EQ(stmts[2].kind, StmtKind::Jump);
    EXPECT_TRUE(stmts[2].indirect);
}

TEST(Parse, RejectsGarbage)
{
    // Every malformed function is a typed IR-parse corruption.
    const auto expectCorrupt = [](const std::string &text) {
        const auto parsed = parseFunction(text);
        ASSERT_FALSE(parsed) << text;
        EXPECT_EQ(parsed.status().stage(), support::Stage::IrParse)
            << text;
        EXPECT_EQ(parsed.status().code(), support::ErrorCode::Corrupt)
            << text;
    };
    expectCorrupt("");
    expectCorrupt("not ir at all");
    expectCorrupt("function f @ zzz (0 blocks)");
    // A statement before any block.
    expectCorrupt("function f @ 0x100 (1 blocks, 0 tmps)\n"
                  "    0x100: RET\n");
    // An unparsable statement.
    const std::string unparsable =
        "function f @ 0x100 (1 blocks, 0 tmps)\n"
        "  block 0x100:\n"
        "    0x100: FROBNICATE t1\n";
    expectCorrupt(unparsable);
    EXPECT_NE(parseFunction(unparsable).errorMessage().find("unparsable"),
              std::string::npos);
    // Ids the analyses would index dense per-function arrays with: a
    // register outside the guest register file, one that would wrap
    // the 16-bit RegId, a temporary that would truncate to t0, one
    // whose numTmps = id + 1 would wrap to 0, and a number past 64
    // bits.
    const auto oneStmt = [](const std::string &stmt) {
        return "function f @ 0x100 (1 blocks, 0 tmps)\n"
               "  block 0x100:\n"
               "    0x100: " + stmt + "\n"
               "    0x104: RET\n";
    };
    expectCorrupt(oneStmt("PUT(r99) = 0x1"));
    expectCorrupt(oneStmt("t0 = GET(r70000)"));
    expectCorrupt(oneStmt("t4294967296 = 0x1"));
    expectCorrupt(oneStmt("t4294967295 = 0x1"));
    expectCorrupt(oneStmt("t0 = GET(r18446744073709551616)"));
    // The largest ids in range still parse.
    const auto edge = parseFunction(oneStmt("t4294967294 = GET(r15)"));
    ASSERT_TRUE(edge) << edge.errorMessage();
    EXPECT_EQ(edge.value().numTmps, 4294967295u);
}

TEST(Parse, RoundTripSimpleFunction)
{
    FunctionBuilder b("roundtrip");
    auto loop = b.newBlock();
    auto exit = b.newBlock();
    b.put(4, Operand::ofImm(0));
    b.jump(loop);
    b.switchTo(loop);
    auto i = b.get(4);
    auto done = b.binop(BinOp::CmpGe, Operand::ofTmp(i),
                        Operand::ofImm(8));
    b.branch(Operand::ofTmp(done), exit);
    auto cell = b.binop(BinOp::Add, Operand::ofImm(0x600000),
                        Operand::ofTmp(i));
    auto v = b.load(Operand::ofTmp(cell));
    b.store(Operand::ofTmp(cell), Operand::ofTmp(v));
    b.put(4, Operand::ofTmp(b.binop(BinOp::Add, Operand::ofTmp(i),
                                    Operand::ofImm(1))));
    b.jump(loop);
    b.switchTo(exit);
    b.call(0x8000);
    b.ret();
    const Function original = b.build(0x4000);

    auto parsed = parseFunction(printFunction(original));
    ASSERT_TRUE(parsed) << parsed.errorMessage();
    // Canonical: printing the parsed function reproduces the text.
    EXPECT_EQ(printFunction(parsed.value()),
              printFunction(original));
}

class ParseRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(ParseRoundTrip, GeneratedProgramsSurviveTextRoundTrip)
{
    // Property: print(parse(print(fn))) == print(fn) for every
    // function of a generated binary (two vendors' worth of shapes).
    synth::SampleSpec spec;
    spec.profile = GetParam() % 2 == 0 ? synth::netgearProfile()
                                       : synth::dlinkProfile();
    spec.profile.minCustomFns = 60;
    spec.profile.maxCustomFns = 90;
    spec.product = spec.profile.series.front();
    spec.version = "V1";
    spec.name = spec.product + "-V1";
    spec.seed = 0x90000 + static_cast<std::uint64_t>(GetParam());
    const auto result = synth::generateHttpd(spec);

    for (const auto &fn : result.image.program.functions()) {
        const std::string text = printFunction(fn);
        auto parsed = parseFunction(text);
        ASSERT_TRUE(parsed) << parsed.errorMessage() << "\n" << text;
        EXPECT_EQ(printFunction(parsed.value()), text);
        EXPECT_EQ(parsed.value().stmtCount(), fn.stmtCount());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseRoundTrip,
                         ::testing::Range(0, 4));

} // namespace
} // namespace fits::ir
