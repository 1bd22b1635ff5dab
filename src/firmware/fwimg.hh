#ifndef FITS_FIRMWARE_FWIMG_HH_
#define FITS_FIRMWARE_FWIMG_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "firmware/filesystem.hh"
#include "support/result.hh"

namespace fits::fw {

/**
 * Payload encodings seen in vendor firmware. None/Xor/Rot are handled by
 * the unpacker (magic-keyed, like the D-Link schemes the paper cites);
 * Opaque simulates a vendor scheme with an unpublished key, which makes
 * pre-processing fail — the paper reports four such samples.
 */
enum class Encoding : std::uint8_t { None, Xor, Rot, Opaque };

const char *encodingName(Encoding encoding);

/** Metadata carried in a firmware image header. */
struct ImageInfo
{
    std::string vendor;
    std::string product;
    std::string version;
    Encoding encoding = Encoding::None;
};

/**
 * A firmware image ready for packing: header info plus file system.
 */
struct FirmwareImage
{
    ImageInfo info;
    Filesystem filesystem;
};

/**
 * Pack an image into FWIMG bytes (format version 3). The payload (file
 * table) is encoded per info.encoding and protected by an XXH64
 * checksum (support::hash64) of its plain bytes; `bootPadding`
 * bytes of opaque bootloader blob are prepended before the magic, so
 * unpacking requires a magic scan (what Binwalk does for real images).
 *
 * Layout: [padding] "FWIM" u32 version (3), vendor, product, fwversion,
 *         u8 encoding, u64 checksum(plain payload), u32 payloadSize,
 *         encoded payload.
 * Payload: u32 nFiles { path, u8 type, u32 size, bytes }.
 */
std::vector<std::uint8_t> packFirmware(const FirmwareImage &image,
                                       std::size_t bootPadding = 0);

/**
 * Scan for the FWIM magic, decode the header, decrypt the payload and
 * verify its checksum, then parse the file table. Fails (with a
 * diagnostic) on missing magic, a format version other than 3 (so
 * images whose checksum is the older FNV-1a fail with BadVersion),
 * Opaque encoding, bad checksum, or a malformed file table.
 */
support::Result<FirmwareImage> unpackFirmware(
    const std::vector<std::uint8_t> &bytes);

/**
 * XOR/ROT codec used by packFirmware; exposed for tests. The key is
 * derived from the vendor string, mirroring magic-byte-keyed vendor
 * schemes. Xor and Rot process eight bytes per step (byte-lane SWAR
 * arithmetic on u64 words) and give exactly the bytes of the
 * byte-at-a-time definition.
 */
std::uint8_t vendorKey(const std::string &vendor);
void encodePayload(std::vector<std::uint8_t> &payload, Encoding encoding,
                   std::uint8_t key);
void decodePayload(std::vector<std::uint8_t> &payload, Encoding encoding,
                   std::uint8_t key);

} // namespace fits::fw

#endif // FITS_FIRMWARE_FWIMG_HH_
