#ifndef FITS_BINARY_BYTEBUF_HH_
#define FITS_BINARY_BYTEBUF_HH_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fits::bin {

/**
 * Little-endian byte-stream writer used by the FBIN/FWIMG encoders.
 *
 * The writer owns a cursor into a buffer it grows itself, so each
 * value costs one capacity check and one store. Capacity grows
 * geometrically (reserve, which leaves new pages untouched), but
 * only up to one page past the cursor is zero-filled at a time, so
 * the vector take() hands back has at most one page of its spare
 * capacity paged in.
 */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { *claim(1) = v; }
    void u16(std::uint16_t v) { store(claim(2), v); }
    void u32(std::uint32_t v) { store(claim(4), v); }
    void u64(std::uint64_t v) { store(claim(8), v); }
    /** Length-prefixed (u32) byte string. */
    void str(const std::string &s);
    /** Raw bytes without a length prefix. */
    void raw(const std::vector<std::uint8_t> &bytes);

    /** The bytes written so far; leaves the writer empty. */
    std::vector<std::uint8_t> take();
    std::size_t size() const { return size_; }

    /** Overwrite 4 bytes at an earlier offset (for patching lengths). */
    void patchU32(std::size_t offset, std::uint32_t v);

  private:
    /** Advance the cursor by n bytes; returns where they go. */
    std::uint8_t *
    claim(std::size_t n)
    {
        if (out_.size() - size_ < n)
            grow(n);
        std::uint8_t *p = out_.data() + size_;
        size_ += n;
        return p;
    }

    /** Make room for n more bytes past the cursor. */
    void grow(std::size_t n);

    /** The bytes of v, least significant first. */
    template <typename T>
    static void
    store(std::uint8_t *p, T v)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(p, &v, sizeof v);
        } else {
            for (std::size_t i = 0; i < sizeof v; ++i)
                p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }

    /** [0, size_) is written; [size_, out_.size()) is zeroed room. */
    std::vector<std::uint8_t> out_;
    std::size_t size_ = 0;
};

/**
 * Bounds-checked little-endian reader. All accessors return false (and
 * leave the output untouched) past end-of-buffer, and set a sticky error
 * flag, so decoders can batch reads and check ok() once.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : data_(bytes.data()), size_(bytes.size())
    {}

    bool u8(std::uint8_t &v);
    bool u16(std::uint16_t &v);
    bool u32(std::uint32_t &v);
    bool u64(std::uint64_t &v);
    bool str(std::string &s);
    /** Read exactly n raw bytes. */
    bool raw(std::vector<std::uint8_t> &bytes, std::size_t n);

    /** True if no read has gone out of bounds. */
    bool ok() const { return ok_; }
    std::size_t offset() const { return offset_; }
    std::size_t remaining() const { return size_ - offset_; }
    bool atEnd() const { return offset_ == size_; }

    /** Move the cursor; fails (sticky) if out of range. */
    bool seek(std::size_t offset);

  private:
    bool take(std::size_t n, const std::uint8_t *&p);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t offset_ = 0;
    bool ok_ = true;
};

} // namespace fits::bin

#endif // FITS_BINARY_BYTEBUF_HH_
