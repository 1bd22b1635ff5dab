/** @file Unit tests for BFV extraction (Algorithm 1) on a handcrafted
 * mini-program with known feature values. */

#include <gtest/gtest.h>

#include "core/behavior.hh"
#include "ir/builder.hh"

namespace fits::core {
namespace {

using ir::BinOp;
using ir::FunctionBuilder;
using ir::Operand;

Operand
t(ir::TmpId id)
{
    return Operand::ofTmp(id);
}

/**
 * Mini world:
 *  libc.so exports strlen (loop over its pointer parameter).
 *  main binary:
 *    getter(key, src, len): loop bounded by len; calls strlen(key);
 *        returns data — the ITS-shaped function.
 *    caller1 / caller2: call getter with a .rodata string key and a
 *        .data slot key respectively.
 *    plain: no params, no calls.
 */
struct World
{
    bin::BinaryImage main;
    std::vector<bin::BinaryImage> libs;
    ir::Addr getterEntry = 0x11000;
    ir::Addr plainEntry = 0x13000;
    ir::Addr caller1Entry = 0x14000;
    ir::Addr caller2Entry = 0x15000;
    ir::Addr strlenPlt = 0;

    World()
    {
        main.name = "httpd";
        main.neededLibraries = {"libc.so"};
        strlenPlt = main.addImport("strlen", "libc.so");

        bin::Section rodata;
        rodata.name = ".rodata";
        rodata.addr = bin::kRodataBase;
        rodata.flags = bin::kSecRead;
        const char text[] = "username\0password\0";
        rodata.bytes.assign(text, text + sizeof(text) - 1);
        main.sections.push_back(rodata);

        bin::Section data;
        data.name = ".data";
        data.addr = bin::kDataBase;
        data.flags = bin::kSecRead | bin::kSecWrite;
        data.bytes.assign(8, 0);
        const ir::Addr pw = bin::kRodataBase + 9;
        for (std::size_t i = 0; i < bin::kPtrSize; ++i)
            data.bytes[i] =
                static_cast<std::uint8_t>(pw >> (8 * i));
        main.sections.push_back(data);

        // getter(key, src, len)
        {
            FunctionBuilder b;
            auto header = b.newBlock();
            auto body = b.newBlock();
            auto exit = b.newBlock();
            b.put(4, t(b.get(ir::kRegR0))); // key
            b.put(5, t(b.get(ir::kRegR1))); // src
            b.put(6, t(b.get(ir::kRegR2))); // len
            b.setArg(0, t(b.get(4)));
            b.call(strlenPlt);
            b.put(7, t(b.retVal()));
            b.put(8, Operand::ofImm(0));
            b.jump(header);
            b.switchTo(header);
            auto done = b.binop(BinOp::CmpGe, t(b.get(8)),
                                t(b.get(6)));
            b.branch(t(done), exit);
            b.jump(body);
            b.switchTo(body);
            auto cell = b.binop(BinOp::Add, t(b.get(5)), t(b.get(8)));
            auto c = b.load(t(cell));
            b.put(9, t(c));
            b.put(8, t(b.binop(BinOp::Add, t(b.get(8)),
                               Operand::ofImm(1))));
            b.jump(header);
            b.switchTo(exit);
            b.put(ir::kRetReg, t(b.get(9)));
            b.ret();
            main.program.addFunction(b.build(getterEntry));
        }
        // plain()
        {
            FunctionBuilder b;
            b.put(ir::kRetReg, Operand::ofImm(0));
            b.ret();
            main.program.addFunction(b.build(plainEntry));
        }
        // caller1: getter("username", 0x600000, 64)
        {
            FunctionBuilder b;
            b.setArg(0, Operand::ofImm(bin::kRodataBase));
            b.setArg(1, Operand::ofImm(0x600000));
            b.setArg(2, Operand::ofImm(64));
            b.call(getterEntry);
            b.ret();
            main.program.addFunction(b.build(caller1Entry));
        }
        // caller2: getter(<data slot -> "password">, 0x600000, 64)
        {
            FunctionBuilder b;
            b.setArg(0, Operand::ofImm(bin::kDataBase));
            b.setArg(1, Operand::ofImm(0x600000));
            b.setArg(2, Operand::ofImm(64));
            b.call(getterEntry);
            b.ret();
            main.program.addFunction(b.build(caller2Entry));
        }
        main.strip();

        bin::BinaryImage libc;
        libc.name = "libc.so";
        {
            FunctionBuilder b("strlen");
            auto header = b.newBlock();
            auto body = b.newBlock();
            auto exit = b.newBlock();
            b.put(4, t(b.get(ir::kRegR0)));
            b.put(5, Operand::ofImm(0));
            b.jump(header);
            b.switchTo(header);
            auto c = b.load(t(b.get(4)));
            auto done = b.binop(BinOp::CmpEq, t(c),
                                Operand::ofImm(0));
            b.branch(t(done), exit);
            b.jump(body);
            b.switchTo(body);
            b.put(4, t(b.binop(BinOp::Add, t(b.get(4)),
                               Operand::ofImm(1))));
            b.put(5, t(b.binop(BinOp::Add, t(b.get(5)),
                               Operand::ofImm(1))));
            b.jump(header);
            b.switchTo(exit);
            b.put(ir::kRetReg, t(b.get(5)));
            b.ret();
            libc.program.addFunction(b.build(bin::kTextBase));
        }
        libs.push_back(std::move(libc));
    }
};

class BehaviorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        linked_ = std::make_unique<analysis::LinkedProgram>(
            world_.main, world_.libs);
        const BehaviorAnalyzer analyzer;
        repr_ = analyzer.analyze(
            analysis::ProgramAnalysis::analyze(*linked_));
    }

    const FunctionRecord &
    record(ir::Addr entry) const
    {
        for (const auto &rec : repr_.records) {
            if (rec.entry == entry && rec.isCustom)
                return rec;
        }
        // the anchor lives in the lib image at kTextBase
        for (const auto &rec : repr_.records) {
            if (rec.entry == entry)
                return rec;
        }
        throw std::runtime_error("record not found");
    }

    World world_;
    std::unique_ptr<analysis::LinkedProgram> linked_;
    BehaviorRepr repr_;
};

TEST_F(BehaviorTest, PartitionsCustomAndAnchors)
{
    EXPECT_EQ(repr_.customFns.size(), 4u);
    ASSERT_EQ(repr_.anchorFns.size(), 1u);
    EXPECT_EQ(repr_.records[repr_.anchorFns[0]].name, "strlen");
    EXPECT_EQ(repr_.anchorMatrix().size(), 1u);
}

TEST_F(BehaviorTest, GetterStructuralFeatures)
{
    const Bfv &bfv = record(world_.getterEntry).bfv;
    EXPECT_EQ(bfv.numBlocks, 4); // entry, header, body, exit
    EXPECT_TRUE(bfv.hasLoop);
    EXPECT_EQ(bfv.numCallers, 2);   // two call sites
    EXPECT_EQ(bfv.numParams, 3);    // key, src, len
    EXPECT_EQ(bfv.numAnchorCalls, 1);
    EXPECT_EQ(bfv.numLibCalls, 1);
}

TEST_F(BehaviorTest, GetterFlowFeatures)
{
    const Bfv &bfv = record(world_.getterEntry).bfv;
    EXPECT_TRUE(bfv.paramsControlLoop);   // i < len
    EXPECT_TRUE(bfv.paramsControlBranch);
    EXPECT_TRUE(bfv.paramsToAnchor);      // strlen(key)
}

TEST_F(BehaviorTest, GetterInterproceduralStrings)
{
    const Bfv &bfv = record(world_.getterEntry).bfv;
    EXPECT_TRUE(bfv.argsHaveStrings);
    // "username" (direct rodata) and "password" (via the data slot).
    EXPECT_EQ(bfv.numDistinctStrings, 2);
}

TEST_F(BehaviorTest, PlainFunctionHasEmptyProfile)
{
    const Bfv &bfv = record(world_.plainEntry).bfv;
    EXPECT_EQ(bfv.numBlocks, 1);
    EXPECT_FALSE(bfv.hasLoop);
    EXPECT_EQ(bfv.numCallers, 0);
    EXPECT_EQ(bfv.numParams, 0);
    EXPECT_EQ(bfv.numAnchorCalls, 0);
    EXPECT_FALSE(bfv.paramsControlLoop);
    EXPECT_FALSE(bfv.paramsControlBranch);
    EXPECT_FALSE(bfv.paramsToAnchor);
    EXPECT_FALSE(bfv.argsHaveStrings);
}

TEST_F(BehaviorTest, AnchorImplementationProfile)
{
    const Bfv &bfv = record(bin::kTextBase).bfv;
    EXPECT_TRUE(bfv.hasLoop);
    EXPECT_EQ(bfv.numParams, 1);
    EXPECT_TRUE(bfv.paramsControlLoop);
    EXPECT_TRUE(bfv.paramsControlBranch);
    EXPECT_EQ(bfv.numCallers, 1); // the getter's call via the PLT
}

TEST_F(BehaviorTest, AlternativeRepresentationsPopulated)
{
    const FunctionRecord &rec = record(world_.getterEntry);
    EXPECT_EQ(rec.augmentedCfg.size(), 10u);
    EXPECT_EQ(rec.attributedCfg.size(), 9u);
    EXPECT_GT(rec.augmentedCfg[0], 0.0); // block count
    EXPECT_GT(rec.attributedCfg[0], 0.0); // statement count
}

} // namespace
} // namespace fits::core
