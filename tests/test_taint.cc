/** @file Unit tests for the taint layer: label tables, the STA
 * dataflow engine, and the Karonte-style path engine, on a handcrafted
 * program with one of each flow/sanitization pattern. */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/program_analysis.hh"
#include "ir/builder.hh"
#include "taint/karonte.hh"
#include "taint/run_index.hh"
#include "taint/sta.hh"

namespace fits::taint {
namespace {

using ir::BinOp;
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

constexpr ir::Addr kBuf = bin::kBssBase;          // recv target
constexpr ir::Addr kCfg = bin::kBssBase + 0x100;  // config, clean
constexpr ir::Addr kOut = bin::kBssBase + 0x200;  // sink scratch

/**
 * The handcrafted binary:
 *   recvLoop:   recv(0, kBuf, 64)
 *   directBug:  v = *(kBuf+4); strcpy(kOut, v)            [bug]
 *   deadGuard:  v = *(kBuf+8); if (0) strcpy(kOut, v)     [not a bug]
 *   checked:    v = *(kBuf+12); if (strlen(v) < 64)
 *                   strcpy(kOut, v)                       [not a bug]
 *   getter(key, src, len): return *(src)   [the ITS]
 *   userHandler: v = getter("username", kBuf, 64); system(v)  [bug]
 *   sysHandler:  v = getter("lan_mac", kCfg, 64);
 *                strcpy(kOut, v)            [system data, filtered]
 */
struct World
{
    bin::BinaryImage main;
    std::vector<bin::BinaryImage> libs; // none: imports stay external
    ir::Addr getterEntry = 0;
    ir::Addr directSink = 0;
    ir::Addr deadSink = 0;
    ir::Addr checkedSink = 0;
    ir::Addr userSink = 0;
    ir::Addr sysSink = 0;

    World()
    {
        main.name = "httpd";
        const auto recvPlt = main.addImport("recv", "libc.so");
        const auto strcpyPlt = main.addImport("strcpy", "libc.so");
        const auto systemPlt = main.addImport("system", "libc.so");
        const auto strlenPlt = main.addImport("strlen", "libc.so");

        bin::Section rodata;
        rodata.name = ".rodata";
        rodata.addr = bin::kRodataBase;
        rodata.flags = bin::kSecRead;
        const char text[] = "username\0lan_mac\0";
        rodata.bytes.assign(text, text + sizeof(text) - 1);
        main.sections.push_back(rodata);
        const ir::Addr userKey = bin::kRodataBase;
        const ir::Addr sysKey = bin::kRodataBase + 9;

        bin::Section bss;
        bss.name = ".bss";
        bss.addr = bin::kBssBase;
        bss.flags = bin::kSecRead | bin::kSecWrite;
        bss.bytes.assign(0x400, 0);
        main.sections.push_back(bss);

        ir::Addr cursor = bin::kTextBase;
        auto place = [&](FunctionBuilder &b) {
            ir::Function fn = b.build(cursor);
            const ir::Addr entry = fn.entry;
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
            return entry;
        };

        { // recvLoop
            FunctionBuilder b;
            b.setArg(0, imm(0));
            b.setArg(1, imm(kBuf));
            b.setArg(2, imm(64));
            b.call(recvPlt);
            b.ret();
            place(b);
        }
        { // directBug
            FunctionBuilder b;
            auto v = b.load(imm(kBuf + 4));
            b.setArg(0, imm(kOut));
            b.setArg(1, t(v));
            directSink = 0; // patched below via the builder position
            const auto blk = b.currentBlock();
            const auto idx = b.nextStmtIndex();
            b.call(strcpyPlt);
            b.ret();
            ir::Function fn = b.build(cursor);
            directSink = fn.blocks[blk].stmtAddr(idx);
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
        }
        { // deadGuard
            FunctionBuilder b;
            auto deadBlk = b.newBlock();
            auto out = b.newBlock();
            auto v = b.load(imm(kBuf + 8));
            b.put(4, t(v));
            auto flag = b.cnst(0);
            b.branch(t(flag), deadBlk);
            b.jump(out);
            b.switchTo(deadBlk);
            b.setArg(0, imm(kOut));
            b.setArg(1, t(b.get(4)));
            const auto blk = b.currentBlock();
            const auto idx = b.nextStmtIndex();
            b.call(strcpyPlt);
            b.jump(out);
            b.switchTo(out);
            b.ret();
            ir::Function fn = b.build(cursor);
            deadSink = fn.blocks[blk].stmtAddr(idx);
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
        }
        { // checked
            FunctionBuilder b;
            auto copyBlk = b.newBlock();
            auto out = b.newBlock();
            auto v = b.load(imm(kBuf + 12));
            b.put(4, t(v));
            b.setArg(0, t(b.get(4)));
            b.call(strlenPlt);
            auto len = b.retVal();
            auto ok = b.binop(BinOp::CmpLt, t(len), imm(64));
            b.branch(t(ok), copyBlk);
            b.jump(out);
            b.switchTo(copyBlk);
            b.setArg(0, imm(kOut));
            b.setArg(1, t(b.get(4)));
            const auto blk = b.currentBlock();
            const auto idx = b.nextStmtIndex();
            b.call(strcpyPlt);
            b.jump(out);
            b.switchTo(out);
            b.ret();
            ir::Function fn = b.build(cursor);
            checkedSink = fn.blocks[blk].stmtAddr(idx);
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
        }
        { // getter(key, src, len): return *src
            FunctionBuilder b;
            auto src = b.get(ir::kRegR1);
            auto v = b.load(t(src));
            b.put(ir::kRetReg, t(v));
            b.ret();
            getterEntry = place(b);
        }
        { // userHandler
            FunctionBuilder b;
            b.setArg(0, imm(userKey));
            b.setArg(1, imm(kBuf));
            b.setArg(2, imm(64));
            b.call(getterEntry);
            auto v = b.retVal();
            b.setArg(0, t(v));
            const auto blk = b.currentBlock();
            const auto idx = b.nextStmtIndex();
            b.call(systemPlt);
            b.ret();
            ir::Function fn = b.build(cursor);
            userSink = fn.blocks[blk].stmtAddr(idx);
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
        }
        { // sysHandler
            FunctionBuilder b;
            b.setArg(0, imm(sysKey));
            b.setArg(1, imm(kCfg));
            b.setArg(2, imm(64));
            b.call(getterEntry);
            auto v = b.retVal();
            b.setArg(0, imm(kOut));
            b.setArg(1, t(v));
            const auto blk = b.currentBlock();
            const auto idx = b.nextStmtIndex();
            b.call(strcpyPlt);
            b.ret();
            ir::Function fn = b.build(cursor);
            sysSink = fn.blocks[blk].stmtAddr(idx);
            cursor += fn.byteSize() + ir::kStmtSize;
            main.program.addFunction(std::move(fn));
        }
        main.strip();
    }
};

struct TaintFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        linked = std::make_unique<analysis::LinkedProgram>(world.main,
                                                           world.libs);
        pa = std::make_unique<analysis::ProgramAnalysis>(
            analysis::ProgramAnalysis::analyze(*linked));
        cts = classicalTaintSources();
        ctsPlusIts = cts;
        ctsPlusIts.push_back(
            TaintSource::its(world.getterEntry, "getter"));
    }

    static bool
    alertAt(const std::vector<Alert> &alerts, ir::Addr site)
    {
        return std::any_of(alerts.begin(), alerts.end(),
                           [site](const Alert &a) {
                               return a.sinkSite == site;
                           });
    }

    World world;
    std::unique_ptr<analysis::LinkedProgram> linked;
    std::unique_ptr<analysis::ProgramAnalysis> pa;
    std::vector<TaintSource> cts, ctsPlusIts;
};

// ---- common ----------------------------------------------------------

TEST(TaintCommon, SinkSpecs)
{
    ASSERT_NE(sinkByName("strcpy"), nullptr);
    EXPECT_EQ(sinkByName("strcpy")->vclass,
              VulnClass::BufferOverflow);
    ASSERT_NE(sinkByName("system"), nullptr);
    EXPECT_EQ(sinkByName("system")->vclass,
              VulnClass::CommandInjection);
    EXPECT_EQ(sinkByName("strlen"), nullptr);
}

TEST(TaintCommon, SystemDataKeys)
{
    EXPECT_TRUE(isSystemDataKey("lan_mac"));
    EXPECT_TRUE(isSystemDataKey("subnet_mask"));
    EXPECT_FALSE(isSystemDataKey("username"));
}

TEST(TaintCommon, LabelTableAssignsBits)
{
    std::vector<TaintSource> sources = classicalTaintSources();
    sources.push_back(TaintSource::its(0x1000, "its0"));
    const LabelTable table = buildLabelTable(sources);
    // Every CTS: one user bit; the ITS: user + system bits.
    EXPECT_EQ(table.labels.size(), sources.size() + 1);
    const auto &its = table.bySource.back();
    EXPECT_NE(its.userBit, 0u);
    EXPECT_NE(its.systemBit, 0u);
    EXPECT_NE(its.userBit, its.systemBit);
    EXPECT_TRUE(table.hasUserData(its.userBit));
    EXPECT_FALSE(table.hasUserData(its.systemBit));
}

// ---- STA --------------------------------------------------------------

TEST_F(TaintFixture, StaFindsDirectGlobalFlow)
{
    const StaEngine sta;
    const auto report = sta.run(*pa, cts);
    EXPECT_TRUE(alertAt(report.alerts, world.directSink));
}

TEST_F(TaintFixture, StaReportsDeadGuardAndCheckedSites)
{
    // STA is flow-insensitive: the dead debug path and the
    // bounds-checked copy both alert (its false-positive classes).
    const StaEngine sta;
    const auto report = sta.run(*pa, cts);
    EXPECT_TRUE(alertAt(report.alerts, world.deadSink));
    EXPECT_TRUE(alertAt(report.alerts, world.checkedSink));
}

TEST_F(TaintFixture, StaMissesItsFlowWithCtsOnly)
{
    // The getter reads through its pointer parameter — invisible to
    // the address-based dataflow (the paper's STA false negatives).
    const StaEngine sta;
    const auto report = sta.run(*pa, cts);
    EXPECT_FALSE(alertAt(report.alerts, world.userSink));
}

TEST_F(TaintFixture, StaItsFindsItsFlow)
{
    const StaEngine sta;
    const auto report = sta.run(*pa, ctsPlusIts);
    EXPECT_TRUE(alertAt(report.alerts, world.userSink));
    // Superset of the CTS-only run.
    const auto base = sta.run(*pa, cts);
    for (const auto &alert : base.alerts)
        EXPECT_TRUE(alertAt(report.alerts, alert.sinkSite));
}

TEST_F(TaintFixture, StaItsSystemDataIsFiltered)
{
    const StaEngine sta;
    const auto report = sta.run(*pa, ctsPlusIts);
    ASSERT_TRUE(alertAt(report.alerts, world.sysSink));
    const auto filtered = report.filteredAlerts();
    EXPECT_FALSE(alertAt(filtered, world.sysSink));
    EXPECT_TRUE(alertAt(filtered, world.userSink)); // user data kept
}

TEST_F(TaintFixture, StaAlertCarriesVulnClass)
{
    const StaEngine sta;
    const auto report = sta.run(*pa, ctsPlusIts);
    for (const auto &alert : report.alerts) {
        if (alert.sinkSite == world.userSink) {
            EXPECT_EQ(alert.vclass, VulnClass::CommandInjection);
        }
        if (alert.sinkSite == world.directSink) {
            EXPECT_EQ(alert.vclass, VulnClass::BufferOverflow);
        }
    }
}

// ---- Karonte ------------------------------------------------------------

TEST_F(TaintFixture, KaronteFindsDirectGlobalFlow)
{
    const KaronteEngine karonte;
    const auto report = karonte.run(*pa, cts);
    EXPECT_TRUE(alertAt(report.alerts, world.directSink));
}

TEST_F(TaintFixture, KarontePrunesDeadGuard)
{
    const KaronteEngine karonte;
    const auto report = karonte.run(*pa, cts);
    EXPECT_FALSE(alertAt(report.alerts, world.deadSink));
}

TEST_F(TaintFixture, KaronteSuppressesBoundsCheckedCopy)
{
    const KaronteEngine karonte;
    const auto report = karonte.run(*pa, cts);
    EXPECT_FALSE(alertAt(report.alerts, world.checkedSink));
}

TEST_F(TaintFixture, KaronteItsSupersetAndItsFlow)
{
    const KaronteEngine karonte;
    const auto base = karonte.run(*pa, cts);
    const auto augmented = karonte.run(*pa, ctsPlusIts);
    EXPECT_TRUE(alertAt(augmented.alerts, world.userSink));
    for (const auto &alert : base.alerts)
        EXPECT_TRUE(alertAt(augmented.alerts, alert.sinkSite));
}

TEST_F(TaintFixture, KaronteItsFiltersSystemData)
{
    const KaronteEngine karonte;
    const auto report = karonte.run(*pa, ctsPlusIts);
    const auto filtered = report.filteredAlerts();
    EXPECT_FALSE(alertAt(filtered, world.sysSink));
}

TEST_F(TaintFixture, KaronteDeterministic)
{
    const KaronteEngine karonte;
    const auto a = karonte.run(*pa, ctsPlusIts);
    const auto b = karonte.run(*pa, ctsPlusIts);
    ASSERT_EQ(a.alerts.size(), b.alerts.size());
    for (std::size_t i = 0; i < a.alerts.size(); ++i) {
        EXPECT_EQ(a.alerts[i].sinkSite, b.alerts[i].sinkSite);
        EXPECT_EQ(a.alerts[i].labelMask, b.alerts[i].labelMask);
    }
}

TEST_F(TaintFixture, StaDeterministic)
{
    const StaEngine sta;
    const auto a = sta.run(*pa, ctsPlusIts);
    const auto b = sta.run(*pa, ctsPlusIts);
    ASSERT_EQ(a.alerts.size(), b.alerts.size());
    for (std::size_t i = 0; i < a.alerts.size(); ++i)
        EXPECT_EQ(a.alerts[i].sinkSite, b.alerts[i].sinkSite);
}

TEST(TaintCommon, LabelTableClampsBeyond64Bits)
{
    // More sources than bits: surplus sources share the last bit (a
    // coarsening, never an out-of-range shift).
    std::vector<TaintSource> sources;
    for (int i = 0; i < 80; ++i)
        sources.push_back(TaintSource::its(
            0x1000 + static_cast<ir::Addr>(i) * 0x10,
            "its" + std::to_string(i)));
    const LabelTable table = buildLabelTable(sources);
    ASSERT_EQ(table.bySource.size(), sources.size());
    for (const auto &bits : table.bySource) {
        EXPECT_NE(bits.userBit, 0u);
        EXPECT_NE(bits.systemBit, 0u);
    }
    // The final sources all share the top bit.
    EXPECT_EQ(table.bySource.back().userBit, 1ULL << 63);
}

TEST_F(TaintFixture, RunTaintFailsGracefullyOnBadInput)
{
    // Engines with an empty source list: no labels, no alerts.
    const StaEngine sta;
    const auto report = sta.run(*pa, {});
    EXPECT_TRUE(report.alerts.empty());
    const KaronteEngine karonte;
    const auto kreport = karonte.run(*pa, {});
    EXPECT_TRUE(kreport.alerts.empty());
}

} // namespace
} // namespace fits::taint
