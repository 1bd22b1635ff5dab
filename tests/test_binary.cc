/** @file Unit tests for the binary container layer (bytebuf, image,
 * FBIN serialization). */

#include <gtest/gtest.h>

#include <bit>

#include "binary/bytebuf.hh"
#include "binary/fbin.hh"
#include "binary/image.hh"
#include "ir/builder.hh"
#include "support/rng.hh"

namespace fits::bin {
namespace {

TEST(ByteBuf, ScalarRoundTrip)
{
    ByteWriter w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.str("hello");

    const auto bytes = w.take();
    ByteReader r(bytes);
    std::uint8_t a;
    std::uint16_t b;
    std::uint32_t c;
    std::uint64_t d;
    std::string s;
    ASSERT_TRUE(r.u8(a));
    ASSERT_TRUE(r.u16(b));
    ASSERT_TRUE(r.u32(c));
    ASSERT_TRUE(r.u64(d));
    ASSERT_TRUE(r.str(s));
    EXPECT_EQ(a, 0xab);
    EXPECT_EQ(b, 0x1234);
    EXPECT_EQ(c, 0xdeadbeefu);
    EXPECT_EQ(d, 0x0123456789abcdefULL);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(r.ok());
}

TEST(ByteBuf, ReadPastEndFailsSticky)
{
    ByteWriter w;
    w.u8(1);
    const auto bytes = w.take();
    ByteReader r(bytes);
    std::uint32_t v;
    EXPECT_FALSE(r.u32(v));
    EXPECT_FALSE(r.ok());
    std::uint8_t b;
    EXPECT_FALSE(r.u8(b)); // sticky failure
}

TEST(ByteBuf, StringLengthBeyondBufferFails)
{
    ByteWriter w;
    w.u32(1000); // claims 1000 bytes follow
    w.u8('x');
    const auto bytes = w.take();
    ByteReader r(bytes);
    std::string s;
    EXPECT_FALSE(r.str(s));
}

TEST(ByteBuf, DoublesRoundTripByBitPattern)
{
    // -0.0 and a NaN payload survive only if doubles travel as bits.
    const std::vector<double> values = {
        -0.0, 1.5, std::bit_cast<double>(0x7ff8dead0000beefULL)};
    ByteWriter w;
    for (double v : values)
        w.f64(v);
    const auto bytes = w.take();
    EXPECT_EQ(bytes.size(), 3u * 8);

    ByteReader r(bytes);
    for (double v : values) {
        double read = 1.0;
        ASSERT_TRUE(r.f64(read));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(read),
                  std::bit_cast<std::uint64_t>(v));
    }
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteBuf, PatchU32)
{
    ByteWriter w;
    const std::size_t at = w.size();
    w.u32(0);
    w.patchU32(at, 0xcafebabe);
    const auto bytes = w.take();
    ByteReader r(bytes);
    std::uint32_t v;
    ASSERT_TRUE(r.u32(v));
    EXPECT_EQ(v, 0xcafebabeu);
}

/** The reference ByteWriter: every byte is one push_back. */
struct ByteAtATimeWriter
{
    std::vector<std::uint8_t> out;

    void
    le(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    patchU32(std::size_t offset, std::uint32_t v)
    {
        if (offset + 4 > out.size())
            return;
        for (int i = 0; i < 4; ++i)
            out[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
};

/** A seeded random mix of every writer call, with strings and raw
 * runs from empty to several pages long so claims land on, inside
 * and across the writer's growth boundaries. Each round ends in
 * take(), which also leaves the writer empty for the next round. */
template <typename Writer>
void
expectMatchesByteAtATimeReference()
{
    support::Rng rng(0xb17e);
    Writer w;
    for (int round = 0; round < 4; ++round) {
        ByteAtATimeWriter ref;
        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t v = rng.next();
            const std::size_t len = rng.chance(0.02)
                                        ? rng.index(20000)
                                        : rng.index(40);
            switch (rng.index(8)) {
              case 0:
                w.u8(static_cast<std::uint8_t>(v));
                ref.le(v, 1);
                break;
              case 1:
                w.u16(static_cast<std::uint16_t>(v));
                ref.le(v, 2);
                break;
              case 2:
                w.u32(static_cast<std::uint32_t>(v));
                ref.le(v, 4);
                break;
              case 3:
                w.u64(v);
                ref.le(v, 8);
                break;
              case 4: {
                std::string s(len, '\0');
                for (auto &c : s)
                    c = static_cast<char>(rng.index(256));
                w.str(s);
                ref.le(s.size(), 4);
                ref.out.insert(ref.out.end(), s.begin(), s.end());
                break;
              }
              case 5: {
                std::vector<std::uint8_t> bytes(len);
                for (auto &b : bytes)
                    b = static_cast<std::uint8_t>(rng.index(256));
                w.raw(bytes);
                ref.out.insert(ref.out.end(), bytes.begin(), bytes.end());
                break;
              }
              case 6: {
                // Offsets up to a few bytes past the end: those must
                // be ignored by both writers.
                const std::size_t at = rng.index(ref.out.size() + 8);
                w.patchU32(at, static_cast<std::uint32_t>(v));
                ref.patchU32(at, static_cast<std::uint32_t>(v));
                break;
              }
              case 7:
                w.f64(std::bit_cast<double>(v));
                ref.le(v, 8);
                break;
            }
            ASSERT_EQ(w.size(), ref.out.size()) << "round " << round
                                                << " op " << op;
        }
        const auto bytes = w.take();
        EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
                  ref.out)
            << "round " << round;
        EXPECT_EQ(w.size(), 0u);
    }
}

TEST(ByteBuf, WriterMatchesByteAtATimeReference)
{
    expectMatchesByteAtATimeReference<ByteWriter>();
    expectMatchesByteAtATimeReference<StringByteWriter>();
}

TEST(ByteBuf, Seek)
{
    ByteWriter w;
    w.u8(1);
    w.u8(2);
    const auto bytes = w.take();
    ByteReader r(bytes);
    ASSERT_TRUE(r.seek(1));
    std::uint8_t v;
    ASSERT_TRUE(r.u8(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(r.seek(5));
}

BinaryImage
makeImage()
{
    BinaryImage image;
    image.name = "httpd";
    image.arch = Arch::Arm;
    image.neededLibraries = {"libc.so"};

    Section rodata;
    rodata.name = ".rodata";
    rodata.addr = kRodataBase;
    rodata.flags = kSecRead;
    const char text[] = "username\0password\0";
    rodata.bytes.assign(text, text + sizeof(text) - 1);
    image.sections.push_back(rodata);

    Section data;
    data.name = ".data";
    data.addr = kDataBase;
    data.flags = kSecRead | kSecWrite;
    data.bytes.assign(16, 0);
    // Slot 0 points to "password" in rodata.
    const Addr target = kRodataBase + 9;
    for (std::size_t i = 0; i < kPtrSize; ++i)
        data.bytes[i] = static_cast<std::uint8_t>(target >> (8 * i));
    image.sections.push_back(data);

    image.addImport("recv", "libc.so");
    image.addImport("strcmp", "libc.so");

    ir::FunctionBuilder b("main");
    b.setArg(0, ir::Operand::ofImm(kRodataBase));
    b.call(image.imports[1].pltAddr);
    b.ret();
    image.program.addFunction(b.build(kTextBase));
    image.symbols.push_back({kTextBase, "main"});
    return image;
}

TEST(Image, SectionClassification)
{
    const BinaryImage image = makeImage();
    EXPECT_TRUE(image.isRodata(kRodataBase));
    EXPECT_TRUE(image.isRodata(kRodataBase + 5));
    EXPECT_FALSE(image.isRodata(kDataBase));
    EXPECT_TRUE(image.isData(kDataBase));
    EXPECT_FALSE(image.isData(kRodataBase));
    EXPECT_TRUE(image.isMapped(kRodataBase));
    EXPECT_FALSE(image.isMapped(0xdeadbeef));
}

TEST(Image, ReadWord)
{
    const BinaryImage image = makeImage();
    auto word = image.readWord(kDataBase);
    ASSERT_TRUE(word.has_value());
    EXPECT_EQ(*word, kRodataBase + 9);
    EXPECT_FALSE(image.readWord(0x12345).has_value());
    // Word straddling the end of a section fails.
    EXPECT_FALSE(image.readWord(kDataBase + 14).has_value());
}

TEST(Image, ReadCString)
{
    const BinaryImage image = makeImage();
    auto s = image.readCString(kRodataBase);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, "username");
    auto s2 = image.readCString(kRodataBase + 9);
    ASSERT_TRUE(s2.has_value());
    EXPECT_EQ(*s2, "password");
    EXPECT_FALSE(image.readCString(0xdead).has_value());
}

TEST(Image, ImportLookups)
{
    const BinaryImage image = makeImage();
    ASSERT_EQ(image.imports.size(), 2u);
    const Import *recv = image.importByName("recv");
    ASSERT_NE(recv, nullptr);
    EXPECT_TRUE(image.isImportAddr(recv->pltAddr));
    EXPECT_EQ(image.importAt(recv->pltAddr), recv);
    EXPECT_EQ(image.importByName("nope"), nullptr);
    EXPECT_FALSE(image.isImportAddr(kTextBase));
}

TEST(Image, NameOfResolvesSymbolsAndImports)
{
    const BinaryImage image = makeImage();
    EXPECT_EQ(image.nameOf(kTextBase), "main");
    EXPECT_EQ(image.nameOf(image.imports[0].pltAddr), "recv");
    EXPECT_EQ(image.nameOf(0x999999), "");
}

TEST(Image, StripRemovesLocalNamesKeepsImports)
{
    BinaryImage image = makeImage();
    image.strip();
    EXPECT_TRUE(image.stripped);
    EXPECT_TRUE(image.symbols.empty());
    EXPECT_TRUE(image.program.functions().front().name.empty());
    EXPECT_EQ(image.imports.size(), 2u); // dynamic symbols survive
    EXPECT_NE(image.importByName("recv"), nullptr);
}

TEST(Fbin, RoundTripPreservesEverything)
{
    const BinaryImage original = makeImage();
    const auto bytes = writeBinary(original);
    auto loaded = loadBinary(bytes);
    ASSERT_TRUE(loaded) << loaded.errorMessage();
    const BinaryImage &image = loaded.value();

    EXPECT_EQ(image.name, original.name);
    EXPECT_EQ(image.arch, original.arch);
    EXPECT_EQ(image.neededLibraries, original.neededLibraries);
    ASSERT_EQ(image.sections.size(), original.sections.size());
    for (std::size_t i = 0; i < image.sections.size(); ++i) {
        EXPECT_EQ(image.sections[i].name, original.sections[i].name);
        EXPECT_EQ(image.sections[i].addr, original.sections[i].addr);
        EXPECT_EQ(image.sections[i].bytes,
                  original.sections[i].bytes);
    }
    ASSERT_EQ(image.imports.size(), original.imports.size());
    EXPECT_EQ(image.imports[0].name, "recv");
    ASSERT_EQ(image.program.size(), original.program.size());
    const ir::Function &fn = image.program.functions().front();
    EXPECT_EQ(fn.stmtCount(),
              original.program.functions().front().stmtCount());
    // Re-serializing yields identical bytes (canonical encoding).
    EXPECT_EQ(writeBinary(image), bytes);
}

TEST(Fbin, RejectsBadMagic)
{
    auto bytes = writeBinary(makeImage());
    bytes[0] = 'X';
    const auto loaded = loadBinary(bytes);
    EXPECT_FALSE(loaded);
    EXPECT_EQ(loaded.status().code(), support::ErrorCode::BadMagic);
    EXPECT_EQ(loaded.status().stage(), support::Stage::Lift);
}

TEST(Fbin, RejectsBadVersion)
{
    auto bytes = writeBinary(makeImage());
    bytes[4] = 0xee;
    const auto loaded = loadBinary(bytes);
    EXPECT_FALSE(loaded);
    EXPECT_EQ(loaded.status().code(),
              support::ErrorCode::BadVersion);
}

TEST(Fbin, RejectsTrailingGarbage)
{
    auto bytes = writeBinary(makeImage());
    bytes.push_back(0);
    const auto loaded = loadBinary(bytes);
    EXPECT_FALSE(loaded);
    EXPECT_EQ(loaded.status().code(), support::ErrorCode::Corrupt);
}

TEST(Fbin, RejectsImportWithoutLibrary)
{
    BinaryImage image = makeImage();
    image.imports[0].library.clear();
    const auto loaded = loadBinary(writeBinary(image));
    EXPECT_EQ(loaded.status().code(), support::ErrorCode::Corrupt);
}

TEST(Fbin, RejectsEveryTruncation)
{
    // Property: no prefix of a valid FBIN parses (the decoder never
    // reads out of bounds and never accepts a truncated file).
    const auto bytes = writeBinary(makeImage());
    for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
        std::vector<std::uint8_t> prefix(bytes.begin(),
                                         bytes.begin() + cut);
        const auto loaded = loadBinary(prefix);
        EXPECT_FALSE(loaded) << "prefix length " << cut;
        // Truncation is reported as a typed lift-stage error, never
        // the catch-all Internal code.
        EXPECT_EQ(loaded.status().stage(), support::Stage::Lift)
            << "prefix length " << cut;
        EXPECT_NE(loaded.status().code(),
                  support::ErrorCode::Internal)
            << "prefix length " << cut << ": "
            << loaded.status().toString();
    }
}

TEST(Fbin, SurvivesRandomByteFlips)
{
    // Property: bit-flipped images either fail cleanly or parse; the
    // decoder must never crash.
    const auto bytes = writeBinary(makeImage());
    support::Rng rng(123);
    for (int round = 0; round < 200; ++round) {
        auto mutated = bytes;
        const std::size_t n = 1 + rng.index(4);
        for (std::size_t i = 0; i < n; ++i)
            mutated[rng.index(mutated.size())] ^=
                static_cast<std::uint8_t>(1 + rng.index(255));
        (void)loadBinary(mutated); // must not crash or hang
    }
    SUCCEED();
}

TEST(ArchName, Names)
{
    EXPECT_STREQ(archName(Arch::Arm), "ARM");
    EXPECT_STREQ(archName(Arch::Aarch64), "AARCH64");
    EXPECT_STREQ(archName(Arch::Mips), "MIPS");
}

} // namespace
} // namespace fits::bin
