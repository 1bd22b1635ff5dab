#include "firmware_gen.hh"

#include "binary/fbin.hh"
#include "ir/builder.hh"
#include "support/rng.hh"
#include "synth/libc_gen.hh"
#include "synth/wordpools.hh"

namespace fits::synth {

namespace {

std::vector<std::uint8_t>
textFile(const std::vector<std::string> &lines)
{
    std::vector<std::uint8_t> bytes;
    for (const auto &line : lines) {
        bytes.insert(bytes.end(), line.begin(), line.end());
        bytes.push_back('\n');
    }
    return bytes;
}

/** A small utility binary with no network imports (for the
 * no-network-binary failure sample, and as file-system filler). */
bin::BinaryImage
utilityBinary(const std::string &name)
{
    bin::BinaryImage image;
    image.name = name;
    image.arch = bin::Arch::Arm;
    image.neededLibraries = {"libc.so"};
    const ir::Addr strlenPlt = image.addImport("strlen", "libc.so");

    ir::FunctionBuilder b;
    b.setArg(0, ir::Operand::ofImm(bin::kRodataBase));
    b.call(strlenPlt);
    b.put(ir::kRetReg, ir::Operand::ofTmp(b.retVal()));
    b.ret();
    image.program.addFunction(b.build(bin::kTextBase));

    bin::Section rodata;
    rodata.name = ".rodata";
    rodata.addr = bin::kRodataBase;
    rodata.flags = bin::kSecRead;
    const char *text = "busybox-like utility\0";
    rodata.bytes.assign(text, text + 21);
    image.sections.push_back(std::move(rodata));

    image.strip();
    return image;
}

} // namespace

GeneratedFirmware
generateFirmware(const SampleSpec &spec)
{
    using FM = SampleSpec::FailureMode;

    GeneratedFirmware out;
    out.spec = spec;

    fw::FirmwareImage image;
    image.info.vendor = spec.profile.vendor;
    image.info.product = spec.product;
    image.info.version = spec.version;
    image.info.encoding = spec.profile.encoding;

    // Library and assets are present in every sample.
    const bin::BinaryImage libc = generateLibc();
    image.filesystem.addFile({"lib/libc.so", fw::FileType::Library,
                              bin::writeBinary(libc)});
    image.filesystem.addFile({"etc/config", fw::FileType::Config,
                              textFile(configLines())});
    image.filesystem.addFile(
        {"www/index.html", fw::FileType::Other,
         textFile({"<html><body>setup</body></html>"})});
    image.filesystem.addFile({"bin/busybox", fw::FileType::Executable,
                              bin::writeBinary(utilityBinary(
                                  "busybox"))});

    if (spec.failure != FM::NoNetworkBinary) {
        HttpdResult httpd = generateHttpd(spec);
        out.truth = std::move(httpd.truth);
        image.filesystem.addFile(
            {"usr/sbin/" + httpd.image.name, fw::FileType::Executable,
             bin::writeBinary(httpd.image)});
    }

    out.bytes = fw::packFirmware(image, spec.profile.bootPadding);

    if (spec.failure == FM::CorruptImage) {
        // Damage the payload so the checksum fails (truncated flash
        // dump / bad download).
        support::Rng rng(spec.seed ^ 0xc0441u);
        for (int i = 0; i < 8 && !out.bytes.empty(); ++i) {
            const std::size_t at =
                out.bytes.size() / 2 + rng.index(out.bytes.size() / 4);
            out.bytes[at] ^= 0xa5;
        }
    }

    return out;
}

} // namespace fits::synth
