#include "fwimg.hh"

#include <string_view>

#include "binary/bytebuf.hh"
#include "support/status.hh"
#include "support/strings.hh"

namespace fits::fw {

namespace {

constexpr char kMagic[4] = {'F', 'W', 'I', 'M'};
constexpr std::uint32_t kVersion = 2;

std::uint64_t
payloadChecksum(const std::vector<std::uint8_t> &payload)
{
    return support::fnv1a(std::string_view(
        reinterpret_cast<const char *>(payload.data()), payload.size()));
}

} // namespace

const char *
encodingName(Encoding encoding)
{
    switch (encoding) {
      case Encoding::None:   return "none";
      case Encoding::Xor:    return "xor";
      case Encoding::Rot:    return "rot";
      case Encoding::Opaque: return "opaque";
    }
    return "?";
}

std::uint8_t
vendorKey(const std::string &vendor)
{
    // Key byte derived from the vendor name, as vendor schemes key off
    // image header bytes. 0 would make XOR a no-op, so avoid it.
    std::uint8_t key =
        static_cast<std::uint8_t>(support::fnv1a(vendor) & 0xff);
    return key == 0 ? 0x5a : key;
}

void
encodePayload(std::vector<std::uint8_t> &payload, Encoding encoding,
              std::uint8_t key)
{
    switch (encoding) {
      case Encoding::None:
        break;
      case Encoding::Xor:
        for (auto &b : payload)
            b ^= key;
        break;
      case Encoding::Rot:
        for (auto &b : payload)
            b = static_cast<std::uint8_t>(b + key);
        break;
      case Encoding::Opaque:
        // An unpublished scheme: a position-dependent scramble the
        // unpacker does not implement.
        for (std::size_t i = 0; i < payload.size(); ++i) {
            payload[i] = static_cast<std::uint8_t>(
                (payload[i] ^ (key + i * 31)) + 17);
        }
        break;
    }
}

void
decodePayload(std::vector<std::uint8_t> &payload, Encoding encoding,
              std::uint8_t key)
{
    switch (encoding) {
      case Encoding::None:
        break;
      case Encoding::Xor:
        for (auto &b : payload)
            b ^= key;
        break;
      case Encoding::Rot:
        for (auto &b : payload)
            b = static_cast<std::uint8_t>(b - key);
        break;
      case Encoding::Opaque:
        // Deliberately not implemented: this is the unsupported-vendor-
        // crypto failure mode. Callers never reach here (unpackFirmware
        // refuses Opaque first).
        break;
    }
}

std::vector<std::uint8_t>
packFirmware(const FirmwareImage &image, std::size_t bootPadding)
{
    using bin::ByteWriter;

    // Build the plain payload: the file table.
    ByteWriter payload;
    payload.u32(static_cast<std::uint32_t>(image.filesystem.size()));
    for (const auto &f : image.filesystem.files()) {
        payload.str(f.path);
        payload.u8(static_cast<std::uint8_t>(f.type));
        payload.u32(static_cast<std::uint32_t>(f.bytes.size()));
        payload.raw(f.bytes);
    }
    std::vector<std::uint8_t> plain = payload.take();
    const std::uint64_t checksum = payloadChecksum(plain);

    encodePayload(plain, image.info.encoding,
                  vendorKey(image.info.vendor));

    ByteWriter w;
    // Opaque bootloader blob before the magic; bytes depend on the
    // vendor so the scan cannot cheat with a fixed offset.
    const std::uint8_t pad = vendorKey(image.info.vendor + "boot");
    for (std::size_t i = 0; i < bootPadding; ++i)
        w.u8(static_cast<std::uint8_t>(pad + i * 7));

    for (char m : kMagic)
        w.u8(static_cast<std::uint8_t>(m));
    w.u32(kVersion);
    w.str(image.info.vendor);
    w.str(image.info.product);
    w.str(image.info.version);
    w.u8(static_cast<std::uint8_t>(image.info.encoding));
    w.u64(checksum);
    w.u32(static_cast<std::uint32_t>(plain.size()));
    w.raw(plain);
    return w.take();
}

support::Result<FirmwareImage>
unpackFirmware(const std::vector<std::uint8_t> &bytes)
{
    using R = support::Result<FirmwareImage>;
    using bin::ByteReader;
    using support::ErrorCode;
    using support::Stage;
    using support::Status;
    const auto err = [](Stage stage, ErrorCode code,
                        std::string message) {
        return R::error(
            Status::error(stage, code, std::move(message)));
    };

    // Magic scan (what Binwalk does): find "FWIM" at any offset.
    std::size_t start = bytes.size();
    for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
        if (bytes[i] == 'F' && bytes[i + 1] == 'W' &&
            bytes[i + 2] == 'I' && bytes[i + 3] == 'M') {
            start = i;
            break;
        }
    }
    if (start == bytes.size()) {
        return err(Stage::Unpack, ErrorCode::BadMagic,
                   "no FWIM magic found in image");
    }

    ByteReader r(bytes.data() + start, bytes.size() - start);
    std::uint8_t magic[4];
    for (auto &m : magic)
        r.u8(m);

    std::uint32_t version;
    if (!r.u32(version)) {
        return err(Stage::Unpack, ErrorCode::Truncated,
                   "truncated firmware header");
    }
    if (version != kVersion) {
        return err(Stage::Unpack, ErrorCode::BadVersion,
                   support::format(
                       "unsupported firmware format version %u",
                       version));
    }

    FirmwareImage image;
    std::uint8_t encoding;
    std::uint64_t checksum;
    std::uint32_t payloadSize;
    if (!r.str(image.info.vendor) || !r.str(image.info.product) ||
        !r.str(image.info.version) || !r.u8(encoding) ||
        !r.u64(checksum) || !r.u32(payloadSize)) {
        return err(Stage::Unpack, ErrorCode::Truncated,
                   "truncated firmware header");
    }
    if (encoding > static_cast<std::uint8_t>(Encoding::Opaque)) {
        return err(Stage::Unpack, ErrorCode::Corrupt,
                   "unknown payload encoding");
    }
    image.info.encoding = static_cast<Encoding>(encoding);

    if (image.info.encoding == Encoding::Opaque) {
        return err(Stage::Unpack, ErrorCode::Unsupported,
                   "vendor uses an unsupported encryption scheme "
                   "(opaque payload)");
    }

    std::vector<std::uint8_t> payload;
    if (!r.raw(payload, payloadSize)) {
        return err(Stage::Unpack, ErrorCode::Truncated,
                   "truncated firmware payload");
    }

    decodePayload(payload, image.info.encoding,
                  vendorKey(image.info.vendor));
    if (payloadChecksum(payload) != checksum) {
        return err(Stage::Unpack, ErrorCode::Corrupt,
                   "payload checksum mismatch "
                   "(corrupt image or wrong key)");
    }

    ByteReader pr(payload);
    std::uint32_t nFiles;
    if (!pr.u32(nFiles)) {
        return err(Stage::Filesystem, ErrorCode::Truncated,
                   "truncated file table");
    }
    for (std::uint32_t i = 0; i < nFiles && pr.ok(); ++i) {
        FileEntry entry;
        std::uint8_t type;
        std::uint32_t size;
        if (!pr.str(entry.path) || !pr.u8(type) || !pr.u32(size) ||
            !pr.raw(entry.bytes, size)) {
            return err(Stage::Filesystem, ErrorCode::Truncated,
                       "malformed file entry");
        }
        if (type > static_cast<std::uint8_t>(FileType::Other)) {
            return err(Stage::Filesystem, ErrorCode::Corrupt,
                       "unknown file type");
        }
        entry.type = static_cast<FileType>(type);
        image.filesystem.addFile(std::move(entry));
    }
    if (!pr.ok()) {
        return err(Stage::Filesystem, ErrorCode::Truncated,
                   "truncated file table");
    }

    return R::ok(std::move(image));
}

} // namespace fits::fw
