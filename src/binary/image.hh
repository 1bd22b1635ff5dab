#ifndef FITS_BINARY_IMAGE_HH_
#define FITS_BINARY_IMAGE_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.hh"

namespace fits::bin {

using ir::Addr;

/** Guest architectures found in the firmware corpus. */
enum class Arch : std::uint8_t { Arm, Aarch64, Mips };

const char *archName(Arch arch);

/** Section permission bits. */
enum SectionFlags : std::uint8_t {
    kSecRead = 1,
    kSecWrite = 2,
    kSecExec = 4,
};

/**
 * One loadable section with its backing bytes. Data words (pointers) in
 * .data are stored little-endian with kPtrSize bytes.
 */
struct Section
{
    std::string name;
    Addr addr = 0;
    std::uint8_t flags = kSecRead;
    std::vector<std::uint8_t> bytes;

    bool
    contains(Addr a) const
    {
        return a >= addr && a < addr + bytes.size();
    }
};

/** Pointer width of the guest (32-bit firmware). */
constexpr std::size_t kPtrSize = 4;

/** A dynamic import: a PLT stub address bound to a library symbol.
 * Import names survive stripping (they live in the dynamic symbol
 * table), which is what makes anchor identification possible. */
struct Import
{
    Addr pltAddr = 0;
    std::string name;
    std::string library;
};

/** A local/export symbol; erased by strip(). */
struct Symbol
{
    Addr addr = 0;
    std::string name;
};

/**
 * Conventional load addresses used by both the synthetic generator and
 * the loader. Fixed layout keeps statement/function addresses meaningful
 * across serialize/load round trips.
 */
constexpr Addr kPltBase = 0x8000;
constexpr Addr kTextBase = 0x10000;
constexpr Addr kRodataBase = 0x400000;
constexpr Addr kDataBase = 0x500000;
constexpr Addr kBssBase = 0x600000;

/**
 * A loaded (and lifted) firmware binary: sections, dynamic imports,
 * optional symbols, dependency list, and the lifted FIR program.
 *
 * In this substrate the FBIN container stores FIR directly, so loading
 * doubles as lifting; all address-space queries the analyses need
 * (rodata/data classification, word and C-string reads, import lookup)
 * live here.
 */
class BinaryImage
{
  public:
    std::string name;
    Arch arch = Arch::Arm;
    std::vector<Section> sections;
    std::vector<Import> imports;
    std::vector<Symbol> symbols;
    /** DT_NEEDED-style dependency library names. */
    std::vector<std::string> neededLibraries;
    ir::Program program;
    bool stripped = false;

    /** Section containing the address, or nullptr. */
    const Section *sectionContaining(Addr addr) const;

    /** Section by name, or nullptr. */
    const Section *sectionByName(const std::string &name) const;
    Section *sectionByName(const std::string &name);

    /** True if addr falls in a read-only data section (.rodata). */
    bool isRodata(Addr addr) const;

    /** True if addr falls in a writable data section (.data/.bss). */
    bool isData(Addr addr) const;

    /** True if addr falls in any mapped section. */
    bool isMapped(Addr addr) const;

    /** Read a kPtrSize-wide little-endian word; nullopt if unmapped. */
    std::optional<Addr> readWord(Addr addr) const;

    /** Read a NUL-terminated string; nullopt if unmapped/unterminated. */
    std::optional<std::string> readCString(Addr addr) const;

    /** Import bound to the PLT stub at addr, or nullptr. */
    const Import *importAt(Addr pltAddr) const;

    /** Import by symbol name, or nullptr. */
    const Import *importByName(const std::string &name) const;

    /** True if the address is a PLT stub (i.e. a library call target). */
    bool isImportAddr(Addr addr) const;

    /** Register an import, allocating the next PLT stub address. */
    Addr addImport(const std::string &name, const std::string &library);

    /** Name of the function at the address: symbol name if present,
     * import name for PLT stubs, empty otherwise. */
    std::string nameOf(Addr addr) const;

    /**
     * Remove local symbols and function names, as vendors do before
     * shipping. Dynamic imports are retained (they are required by the
     * loader and survive in real stripped binaries too).
     */
    void strip();

    /** Sum of section sizes plus code size: the "file size" used by the
     * Figure 4 experiment. */
    std::size_t byteSize() const;

    /** Rebuild the import-address index (after bulk edits). */
    void reindexImports();

  private:
    std::unordered_map<Addr, std::size_t> importIndex_;
    Addr nextPlt_ = kPltBase;
};

} // namespace fits::bin

#endif // FITS_BINARY_IMAGE_HH_
