#ifndef FITS_SYNTH_DATAPOOL_HH_
#define FITS_SYNTH_DATAPOOL_HH_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "binary/image.hh"

namespace fits::synth {

/**
 * Builder for a .rodata section: interns NUL-terminated strings and
 * returns their virtual addresses (deduplicated).
 */
class RodataPool
{
  public:
    explicit RodataPool(ir::Addr base = bin::kRodataBase);

    /** Address of the string, appending it on first use. */
    ir::Addr intern(const std::string &text);

    /** Reserve n contiguous words for later patching. */
    ir::Addr reserveWords(std::size_t n);

    /** Patch a previously reserved word. */
    void patchWord(ir::Addr addr, std::uint64_t value);

    /** Finish into a read-only section. */
    bin::Section finish() const;

    ir::Addr base() const { return base_; }

  private:
    ir::Addr base_;
    std::vector<std::uint8_t> bytes_;
    std::unordered_map<std::string, ir::Addr> interned_;
};

/**
 * Builder for a writable .data section: word slots (pointers or
 * integers), reservable first and patchable later — needed for handler
 * tables whose function entries are only known after the handlers are
 * built.
 */
class DataPool
{
  public:
    explicit DataPool(ir::Addr base = bin::kDataBase);

    /** Append a word; returns its address. */
    ir::Addr addWord(std::uint64_t value);

    /** Reserve n contiguous words; returns the first address. */
    ir::Addr reserveWords(std::size_t n);

    /** Patch a previously added/reserved word. */
    void patchWord(ir::Addr addr, std::uint64_t value);

    /** Append raw bytes (e.g. a config blob); returns the address. */
    ir::Addr addBytes(const std::vector<std::uint8_t> &bytes);

    bin::Section finish() const;

    ir::Addr base() const { return base_; }
    ir::Addr cursor() const { return base_ + bytes_.size(); }

  private:
    ir::Addr base_;
    std::vector<std::uint8_t> bytes_;
};

} // namespace fits::synth

#endif // FITS_SYNTH_DATAPOOL_HH_
