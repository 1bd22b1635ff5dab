/** @file Unit tests for the linked-program view and the call graph. */

#include <gtest/gtest.h>

#include "analysis/program_analysis.hh"
#include "ir/builder.hh"

namespace fits::analysis {
namespace {

using ir::FunctionBuilder;
using ir::Operand;

/** Main binary importing strlen + recv, calling a local helper and the
 * imports; plus a libc exporting strlen. */
struct Fixture
{
    bin::BinaryImage main;
    std::vector<bin::BinaryImage> libs;
    ir::Addr helperEntry = 0;
    ir::Addr strlenPlt = 0;
    ir::Addr recvPlt = 0;

    Fixture()
    {
        main.name = "httpd";
        main.neededLibraries = {"libc.so"};
        strlenPlt = main.addImport("strlen", "libc.so");
        recvPlt = main.addImport("recv", "libc.so");

        FunctionBuilder helper;
        helper.ret();
        helperEntry = 0x20000;
        main.program.addFunction(helper.build(helperEntry));

        FunctionBuilder entry;
        entry.call(helperEntry);
        entry.call(helperEntry);
        entry.call(strlenPlt);
        entry.call(recvPlt);
        entry.ret();
        main.program.addFunction(entry.build(bin::kTextBase));

        bin::BinaryImage libc;
        libc.name = "libc.so";
        FunctionBuilder strlenImpl("strlen");
        strlenImpl.ret();
        libc.program.addFunction(strlenImpl.build(bin::kTextBase));
        libs.push_back(std::move(libc));
    }
};

TEST(LinkedProgram, CountsAllFunctions)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    EXPECT_EQ(linked.fnCount(), 3u);
    EXPECT_TRUE(linked.isMainFn(0));
    EXPECT_TRUE(linked.isMainFn(1));
    EXPECT_FALSE(linked.isMainFn(2));
}

TEST(LinkedProgram, ResolvesLocalFunction)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    const auto target = linked.resolve(&f.main, f.helperEntry);
    EXPECT_EQ(target.kind,
              LinkedProgram::CallTarget::Kind::Function);
    EXPECT_TRUE(target.library.empty());
}

TEST(LinkedProgram, BindsImportToLibraryExport)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    const auto target = linked.resolve(&f.main, f.strlenPlt);
    EXPECT_EQ(target.kind,
              LinkedProgram::CallTarget::Kind::Function);
    EXPECT_EQ(target.name, "strlen");
    EXPECT_EQ(target.library, "libc.so");
    EXPECT_FALSE(linked.isMainFn(target.fn));
}

TEST(LinkedProgram, UnboundImportIsExternal)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    const auto target = linked.resolve(&f.main, f.recvPlt);
    EXPECT_EQ(target.kind,
              LinkedProgram::CallTarget::Kind::ExternalImport);
    EXPECT_EQ(target.name, "recv");
}

TEST(LinkedProgram, UnknownAddress)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    const auto target = linked.resolve(&f.main, 0xdeadbeef);
    EXPECT_EQ(target.kind, LinkedProgram::CallTarget::Kind::Unknown);
}

TEST(LinkedProgram, FnIdOf)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    auto id = linked.fnIdOf(&f.main, f.helperEntry);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(linked.fn(*id).fn->entry, f.helperEntry);
    EXPECT_FALSE(linked.fnIdOf(&f.main, 0x1).has_value());
}

TEST(CallGraphTest, CallerAndCalleeSites)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    const CallGraph cg = CallGraph::build(linked);

    const auto helperId = *linked.fnIdOf(&f.main, f.helperEntry);
    const auto entryId = *linked.fnIdOf(&f.main, bin::kTextBase);

    EXPECT_EQ(cg.callerSiteCount(helperId), 2u); // two call sites
    EXPECT_EQ(cg.distinctCallerCount(helperId), 1u);
    EXPECT_EQ(cg.sitesOfCaller(entryId).size(), 4u);
    // strlen (bound import) + recv (external) are library calls.
    EXPECT_EQ(cg.libraryCallCount(entryId), 2u);
    EXPECT_EQ(cg.libraryCallCount(helperId), 0u);
}

TEST(CallGraphTest, IndirectCallsResolvedViaUcse)
{
    bin::BinaryImage main;
    main.name = "m";
    bin::Section rodata;
    rodata.name = ".rodata";
    rodata.addr = bin::kRodataBase;
    rodata.flags = bin::kSecRead;
    rodata.bytes.assign(bin::kPtrSize, 0);
    const ir::Addr callee = 0x30000;
    for (std::size_t i = 0; i < bin::kPtrSize; ++i)
        rodata.bytes[i] = static_cast<std::uint8_t>(callee >> (8 * i));
    main.sections.push_back(rodata);

    FunctionBuilder calleeB;
    calleeB.ret();
    main.program.addFunction(calleeB.build(callee));

    FunctionBuilder caller;
    auto slot = caller.cnst(bin::kRodataBase);
    auto target = caller.load(Operand::ofTmp(slot));
    caller.callIndirect(Operand::ofTmp(target));
    caller.ret();
    main.program.addFunction(caller.build(bin::kTextBase));

    const std::vector<bin::BinaryImage> libs;
    const LinkedProgram linked(main, libs);
    const ProgramAnalysis pa = ProgramAnalysis::analyze(linked);

    const auto calleeId = *linked.fnIdOf(&main, callee);
    ASSERT_EQ(pa.callGraph.callerSiteCount(calleeId), 1u);
    const auto &site =
        pa.callGraph.sites()[pa.callGraph.sitesOfCallee(calleeId)[0]];
    EXPECT_TRUE(site.indirect);
    EXPECT_TRUE(site.resolvesToFunction());
}

TEST(CallGraphTest, UnresolvedIndirectKeptAsUnknownSite)
{
    bin::BinaryImage main;
    main.name = "m";
    FunctionBuilder caller;
    auto t = caller.get(ir::kRegR0); // symbolic target
    caller.callIndirect(Operand::ofTmp(t));
    caller.ret();
    main.program.addFunction(caller.build(bin::kTextBase));
    const std::vector<bin::BinaryImage> libs;
    const LinkedProgram linked(main, libs);
    const ProgramAnalysis pa = ProgramAnalysis::analyze(linked);
    ASSERT_EQ(pa.callGraph.sites().size(), 1u);
    EXPECT_TRUE(pa.callGraph.sites()[0].indirect);
    EXPECT_FALSE(pa.callGraph.sites()[0].resolvesToFunction());
}

TEST(ProgramAnalysisTest, AnalyzesEveryFunction)
{
    Fixture f;
    const LinkedProgram linked(f.main, f.libs);
    const ProgramAnalysis pa = ProgramAnalysis::analyze(linked);
    EXPECT_EQ(pa.fns.size(), linked.fnCount());
    for (const auto &fa : pa.fns)
        EXPECT_GT(fa.cfg.numBlocks(), 0u);
}

} // namespace
} // namespace fits::analysis
