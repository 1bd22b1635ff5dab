/** @file Unit tests for the firmware layer (FWIMG, filesystem,
 * network-binary selection). */

#include <gtest/gtest.h>

#include "binary/fbin.hh"
#include "firmware/filesystem.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "ir/builder.hh"
#include "support/status.hh"

namespace fits::fw {
namespace {

FirmwareImage
makeImage(Encoding encoding = Encoding::None)
{
    FirmwareImage image;
    image.info.vendor = "ACME";
    image.info.product = "AC1234";
    image.info.version = "V1.0";
    image.info.encoding = encoding;
    image.filesystem.addFile(
        {"etc/config", FileType::Config, {'a', '=', '1', '\n'}});
    image.filesystem.addFile(
        {"www/index.html", FileType::Other, {'<', '>'}});
    return image;
}

TEST(Filesystem, FindAndBasename)
{
    Filesystem fs;
    fs.addFile({"lib/libc.so", FileType::Library, {1, 2}});
    fs.addFile({"usr/sbin/httpd", FileType::Executable, {3}});
    EXPECT_NE(fs.find("lib/libc.so"), nullptr);
    EXPECT_EQ(fs.find("libc.so"), nullptr);
    EXPECT_NE(fs.findByBasename("libc.so"), nullptr);
    EXPECT_NE(fs.findByBasename("httpd"), nullptr);
    EXPECT_EQ(fs.findByBasename("nope.so"), nullptr);
    EXPECT_EQ(fs.filesOfType(FileType::Library).size(), 1u);
    EXPECT_EQ(fs.totalBytes(), 3u);
}

TEST(Filesystem, BasenameDoesNotMatchSuffixInsideName)
{
    Filesystem fs;
    fs.addFile({"lib/foolibc.so", FileType::Library, {}});
    EXPECT_EQ(fs.findByBasename("libc.so"), nullptr);
}

TEST(Fwimg, PlainRoundTrip)
{
    const FirmwareImage original = makeImage();
    const auto bytes = packFirmware(original);
    auto unpacked = unpackFirmware(bytes);
    ASSERT_TRUE(unpacked) << unpacked.errorMessage();
    const FirmwareImage &image = unpacked.value();
    EXPECT_EQ(image.info.vendor, "ACME");
    EXPECT_EQ(image.info.product, "AC1234");
    EXPECT_EQ(image.info.version, "V1.0");
    ASSERT_EQ(image.filesystem.size(), 2u);
    EXPECT_EQ(image.filesystem.files()[0].path, "etc/config");
    EXPECT_EQ(image.filesystem.files()[0].bytes,
              original.filesystem.files()[0].bytes);
}

TEST(Fwimg, XorAndRotEncodingsRoundTrip)
{
    for (Encoding enc : {Encoding::Xor, Encoding::Rot}) {
        const auto bytes = packFirmware(makeImage(enc));
        auto unpacked = unpackFirmware(bytes);
        ASSERT_TRUE(unpacked) << encodingName(enc);
        EXPECT_EQ(unpacked.value().filesystem.size(), 2u);
    }
}

TEST(Fwimg, EncodedPayloadActuallyDiffers)
{
    const auto plain = packFirmware(makeImage(Encoding::None));
    const auto xored = packFirmware(makeImage(Encoding::Xor));
    EXPECT_NE(plain, xored);
}

TEST(Fwimg, OpaqueEncodingFailsToUnpack)
{
    const auto bytes = packFirmware(makeImage(Encoding::Opaque));
    auto unpacked = unpackFirmware(bytes);
    ASSERT_FALSE(unpacked);
    EXPECT_NE(unpacked.errorMessage().find("encryption"),
              std::string::npos);
}

TEST(Fwimg, MagicScanSkipsBootPadding)
{
    for (std::size_t padding : {0u, 1u, 64u, 1000u}) {
        const auto bytes = packFirmware(makeImage(), padding);
        auto unpacked = unpackFirmware(bytes);
        ASSERT_TRUE(unpacked) << "padding " << padding;
    }
}

TEST(Fwimg, MissingMagicFails)
{
    std::vector<std::uint8_t> junk(256, 0x42);
    auto unpacked = unpackFirmware(junk);
    ASSERT_FALSE(unpacked);
    EXPECT_NE(unpacked.errorMessage().find("magic"),
              std::string::npos);
}

TEST(Fwimg, CorruptPayloadFailsChecksum)
{
    auto bytes = packFirmware(makeImage(), 16);
    bytes[bytes.size() - 2] ^= 0xff;
    auto unpacked = unpackFirmware(bytes);
    ASSERT_FALSE(unpacked);
    EXPECT_NE(unpacked.errorMessage().find("checksum"),
              std::string::npos);
}

TEST(Fwimg, TruncatedImageFails)
{
    const auto bytes = packFirmware(makeImage());
    for (std::size_t cut = 4; cut < bytes.size(); cut += 7) {
        std::vector<std::uint8_t> prefix(bytes.begin(),
                                         bytes.begin() + cut);
        EXPECT_FALSE(unpackFirmware(prefix)) << "cut " << cut;
    }
}

TEST(Fwimg, VendorKeyNonZero)
{
    EXPECT_NE(vendorKey(""), 0);
    EXPECT_NE(vendorKey("NETGEAR"), 0);
}

TEST(Fwimg, CodecInverses)
{
    std::vector<std::uint8_t> payload = {0, 1, 2, 250, 251, 252};
    for (Encoding enc : {Encoding::None, Encoding::Xor,
                         Encoding::Rot}) {
        auto copy = payload;
        encodePayload(copy, enc, 0x5a);
        decodePayload(copy, enc, 0x5a);
        EXPECT_EQ(copy, payload) << encodingName(enc);
    }
}

/** The Xor/Rot codec one byte at a time: the definition the word
 * codec must reproduce. */
std::vector<std::uint8_t>
byteLoopCodec(std::vector<std::uint8_t> bytes, Encoding encoding,
              std::uint8_t key, bool decode)
{
    for (auto &b : bytes) {
        if (encoding == Encoding::Xor)
            b = static_cast<std::uint8_t>(b ^ key);
        else if (encoding == Encoding::Rot)
            b = static_cast<std::uint8_t>(decode ? b - key : b + key);
    }
    return bytes;
}

TEST(Fwimg, WordCodecMatchesByteLoop)
{
    // Lengths 0..17 cover an empty payload, tails only, one and two
    // whole words with every tail length; the 256-byte payload puts
    // every byte value under every key, in every lane position of a
    // word.
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::size_t len = 0; len <= 17; ++len) {
        std::vector<std::uint8_t> bytes(len);
        for (std::size_t i = 0; i < len; ++i)
            bytes[i] = static_cast<std::uint8_t>(i * 151 + len * 29 + 0x7e);
        payloads.push_back(std::move(bytes));
    }
    std::vector<std::uint8_t> all(256);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<std::uint8_t>(i * 77);
    payloads.push_back(all);

    for (Encoding enc : {Encoding::Xor, Encoding::Rot}) {
        for (unsigned k = 0; k <= 255; ++k) {
            const auto key = static_cast<std::uint8_t>(k);
            for (const auto &payload : payloads) {
                auto encoded = payload;
                encodePayload(encoded, enc, key);
                ASSERT_EQ(encoded, byteLoopCodec(payload, enc, key, false))
                    << encodingName(enc) << " encode key " << k
                    << " length " << payload.size();
                auto decoded = payload;
                decodePayload(decoded, enc, key);
                ASSERT_EQ(decoded, byteLoopCodec(payload, enc, key, true))
                    << encodingName(enc) << " decode key " << k
                    << " length " << payload.size();
            }
        }
    }
}

TEST(Fwimg, RejectsOlderFormatVersion)
{
    // Version 2 images carry an FNV-1a checksum; the unpacker reads
    // only version 3 and says so with a typed error.
    auto bytes = packFirmware(makeImage());
    ASSERT_EQ(bytes[4], 3);
    bytes[4] = 2;
    const auto unpacked = unpackFirmware(bytes);
    ASSERT_FALSE(unpacked);
    EXPECT_EQ(unpacked.status().code(), support::ErrorCode::BadVersion);
}

// ---- network binary selection --------------------------------------

bin::BinaryImage
makeNetworkBinary(const std::string &name, bool withRecv)
{
    bin::BinaryImage image;
    image.name = name;
    image.neededLibraries = {"libc.so"};
    const auto socketPlt = image.addImport("socket", "libc.so");
    ir::Addr recvPlt = socketPlt;
    if (withRecv)
        recvPlt = image.addImport("recv", "libc.so");
    ir::FunctionBuilder b;
    b.call(socketPlt);
    if (withRecv)
        b.call(recvPlt);
    b.ret();
    image.program.addFunction(b.build(bin::kTextBase));
    return image;
}

TEST(Select, PrefersReceiveStyleImports)
{
    const auto sender = makeNetworkBinary("sender", false);
    const auto receiver = makeNetworkBinary("httpd", true);
    EXPECT_GT(networkScore(receiver), networkScore(sender));
}

TEST(Select, PicksHighestScoringExecutable)
{
    Filesystem fs;
    fs.addFile({"bin/sender", FileType::Executable,
                bin::writeBinary(makeNetworkBinary("sender", false))});
    fs.addFile({"usr/sbin/httpd", FileType::Executable,
                bin::writeBinary(makeNetworkBinary("httpd", true))});
    auto target = selectAnalysisTarget(fs);
    ASSERT_TRUE(target) << target.errorMessage();
    EXPECT_EQ(target.value().main->name, "httpd");
    // libc.so missing from the filesystem: recorded, not fatal.
    EXPECT_EQ(target.value().missingLibraries,
              std::vector<std::string>{"libc.so"});
}

TEST(Select, FailsWithoutNetworkBinary)
{
    Filesystem fs;
    bin::BinaryImage plain;
    plain.name = "busybox";
    ir::FunctionBuilder b;
    b.ret();
    plain.program.addFunction(b.build(bin::kTextBase));
    fs.addFile({"bin/busybox", FileType::Executable,
                bin::writeBinary(plain)});
    auto target = selectAnalysisTarget(fs);
    ASSERT_FALSE(target);
    EXPECT_NE(target.errorMessage().find("network"),
              std::string::npos);
}

TEST(Select, FailsWhenNothingParses)
{
    Filesystem fs;
    fs.addFile({"bin/garbage", FileType::Executable, {1, 2, 3}});
    auto target = selectAnalysisTarget(fs);
    ASSERT_FALSE(target);
    EXPECT_NE(target.errorMessage().find("FBIN"), std::string::npos);
}

TEST(Select, ResolvesDependencyLibraries)
{
    Filesystem fs;
    fs.addFile({"usr/sbin/httpd", FileType::Executable,
                bin::writeBinary(makeNetworkBinary("httpd", true))});
    bin::BinaryImage libc;
    libc.name = "libc.so";
    ir::FunctionBuilder b("strlen");
    b.ret();
    libc.program.addFunction(b.build(bin::kTextBase));
    fs.addFile({"lib/libc.so", FileType::Library,
                bin::writeBinary(libc)});
    auto target = selectAnalysisTarget(fs);
    ASSERT_TRUE(target);
    ASSERT_EQ(target.value().libraries.size(), 1u);
    EXPECT_EQ(target.value().libraries[0]->name, "libc.so");
    EXPECT_TRUE(target.value().missingLibraries.empty());
}

} // namespace
} // namespace fits::fw
