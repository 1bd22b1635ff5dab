/** @file Tests of the Karonte engine's resource model — the call-depth
 * limit and step budgets that produce the paper's false negatives —
 * and of the pointer-seed range shared by both engines. */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "analysis/program_analysis.hh"
#include "ir/builder.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits::taint {
namespace {

using ir::FunctionBuilder;
using ir::Operand;

Operand
t(ir::TmpId id)
{
    return Operand::ofTmp(id);
}

Operand
imm(std::uint64_t v)
{
    return Operand::ofImm(v);
}

constexpr ir::Addr kBuf = bin::kBssBase;
constexpr ir::Addr kOut = bin::kBssBase + 0x200;

/**
 * recvRoot: recv(0, kBuf, 64); v = *(kBuf+off); <filler>; chain1(v)
 * chain1(v) -> chain2(v) -> ... -> chainN(v) -> strcpy(kOut, v)
 *
 * ChainWorld(N) has N chain functions. The root is frame 1, so chainN,
 * which calls the sink, runs in frame N + 1. `filler` pads the root
 * with that many constant statements between the seed and the chain.
 */
struct ChainWorld
{
    bin::BinaryImage main;
    std::vector<bin::BinaryImage> libs;
    ir::Addr sink = 0;

    explicit ChainWorld(int depth, ir::Addr loadOffset = 4,
                        std::size_t filler = 0)
    {
        main.name = "httpd";
        const auto recvPlt = main.addImport("recv", "libc.so");
        const auto strcpyPlt = main.addImport("strcpy", "libc.so");

        bin::Section bss;
        bss.name = ".bss";
        bss.addr = bin::kBssBase;
        bss.flags = bin::kSecRead | bin::kSecWrite;
        bss.bytes.assign(0x400, 0);
        main.sections.push_back(bss);

        ir::Addr cursor = bin::kTextBase;

        // Innermost function: the sink.
        ir::Addr callee;
        {
            FunctionBuilder b;
            auto v = b.get(ir::kRegR0);
            b.setArg(0, imm(kOut));
            b.setArg(1, t(v));
            const auto blk = b.currentBlock();
            const auto idx = b.nextStmtIndex();
            b.call(strcpyPlt);
            b.ret();
            ir::Function fn = b.build(cursor);
            sink = fn.blocks[blk].stmtAddr(idx);
            callee = fn.entry;
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
        }
        // Wrappers.
        for (int d = 1; d < depth; ++d) {
            FunctionBuilder b;
            auto v = b.get(ir::kRegR0);
            b.setArg(0, t(v));
            b.call(callee);
            b.ret();
            ir::Function fn = b.build(cursor);
            callee = fn.entry;
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
        }
        // Root with the recv seed and the tainted load.
        {
            FunctionBuilder b;
            b.setArg(0, imm(0));
            b.setArg(1, imm(kBuf));
            b.setArg(2, imm(64));
            b.call(recvPlt);
            auto v = b.load(imm(kBuf + loadOffset));
            for (std::size_t i = 0; i < filler; ++i)
                b.cnst(i);
            b.setArg(0, t(v));
            b.call(callee);
            b.ret();
            main.program.addFunction(b.build(cursor));
        }
        main.strip();
    }
};

bool
alertAt(const std::vector<Alert> &alerts, ir::Addr site)
{
    return std::any_of(alerts.begin(), alerts.end(),
                       [site](const Alert &a) {
                           return a.sinkSite == site;
                       });
}

TEST(KaronteBudget, FindsSinkWithinDepth)
{
    const ChainWorld world(2); // root -> wrapper -> sink: depth 3
    const analysis::LinkedProgram linked(world.main, world.libs);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const KaronteEngine karonte;
    const auto report = karonte.run(pa, classicalTaintSources());
    EXPECT_TRUE(alertAt(report.alerts, world.sink));
}

TEST(KaronteBudget, DepthLimitCutsDeepChains)
{
    const ChainWorld world(6); // deeper than the limit of 4
    const analysis::LinkedProgram linked(world.main, world.libs);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const KaronteEngine karonte;
    const auto report = karonte.run(pa, classicalTaintSources());
    EXPECT_FALSE(alertAt(report.alerts, world.sink));
}

TEST(KaronteBudget, DepthLimitBoundary)
{
    // A call descends only from fewer than kMaxCallDepth frames, so
    // the sink's caller may run in frame 4 at most: chain 3 is the
    // deepest that alerts, chain 4 the shallowest that does not.
    static_assert(KaronteEngine::kMaxCallDepth == 4);
    for (const auto &[depth, alerts] : {std::pair{3, true},
                                        std::pair{4, false}}) {
        SCOPED_TRACE(depth);
        const ChainWorld world(depth);
        const analysis::LinkedProgram linked(world.main, world.libs);
        const auto pa = analysis::ProgramAnalysis::analyze(linked);
        const auto report =
            KaronteEngine().run(pa, classicalTaintSources());
        EXPECT_EQ(alertAt(report.alerts, world.sink), alerts);
    }
}

TEST(KaronteBudget, StepBudgetExhaustionIsReported)
{
    // The root spends the whole-binary budget on filler before the
    // sink chain; with a few statements of filler the sink alerts.
    for (const auto &[filler, exhausted] :
         {std::pair{std::size_t{16}, false},
          std::pair{KaronteEngine::kMaxTotalSteps, true}}) {
        SCOPED_TRACE(filler);
        const ChainWorld world(1, 4, filler);
        const analysis::LinkedProgram linked(world.main, world.libs);
        const auto pa = analysis::ProgramAnalysis::analyze(linked);
        const auto report =
            KaronteEngine().run(pa, classicalTaintSources());
        EXPECT_EQ(report.budgetExhausted, exhausted);
        EXPECT_EQ(alertAt(report.alerts, world.sink), !exhausted);
        if (exhausted) {
            EXPECT_EQ(report.steps, KaronteEngine::kMaxTotalSteps);
        }
    }
}

TEST(StaBudget, DepthDoesNotLimitDataflow)
{
    // STA's summaries propagate through arbitrarily deep direct call
    // chains — the mechanism behind the 9 bugs only STA found.
    const ChainWorld world(9);
    const analysis::LinkedProgram linked(world.main, world.libs);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const StaEngine sta;
    const auto report = sta.run(pa, classicalTaintSources());
    EXPECT_TRUE(alertAt(report.alerts, world.sink));
}

TEST(SeedRange, BufferCellsWithinRangeAreTainted)
{
    const ChainWorld inRange(2, kPointerSeedRange - 1);
    {
        const analysis::LinkedProgram linked(inRange.main,
                                             inRange.libs);
        const auto pa = analysis::ProgramAnalysis::analyze(linked);
        const auto report =
            StaEngine().run(pa, classicalTaintSources());
        EXPECT_TRUE(alertAt(report.alerts, inRange.sink));
    }
    const ChainWorld outOfRange(2, kPointerSeedRange + 16);
    {
        const analysis::LinkedProgram linked(outOfRange.main,
                                             outOfRange.libs);
        const auto pa = analysis::ProgramAnalysis::analyze(linked);
        const auto report =
            StaEngine().run(pa, classicalTaintSources());
        EXPECT_FALSE(alertAt(report.alerts, outOfRange.sink));
    }
}

} // namespace
} // namespace fits::taint
