#ifndef FITS_BINARY_BYTEBUF_HH_
#define FITS_BINARY_BYTEBUF_HH_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fits::bin {

/**
 * Little-endian byte-stream writer. Doubles are stored by bit pattern.
 * `Bytes` is the buffer take() hands back: `ByteWriter` fills a byte
 * vector (FBIN, FWIMG, the cache entry header), `StringByteWriter` the
 * std::string a behavior bundle is cached as, so neither encoder
 * copies its output.
 *
 * The writer owns a cursor into a buffer it grows itself, so each
 * value costs one capacity check and one store. Capacity grows
 * geometrically (reserve, which leaves new pages untouched), but
 * only up to one page past the cursor is zero-filled at a time, so
 * the buffer take() hands back has at most one page of its spare
 * capacity paged in.
 */
template <typename Bytes>
class BasicByteWriter
{
  public:
    void u8(std::uint8_t v) { *claim(1) = v; }
    void u16(std::uint16_t v) { store(claim(2), v); }
    void u32(std::uint32_t v) { store(claim(4), v); }
    void u64(std::uint64_t v) { store(claim(8), v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    /** Length-prefixed (u32) byte string. */
    void str(const std::string &s);
    /** Raw bytes without a length prefix. */
    void raw(const std::vector<std::uint8_t> &bytes);

    /** The bytes written so far; leaves the writer empty. */
    Bytes take();
    std::size_t size() const { return size_; }
    /** Room for n bytes in all, so an encoder that knows its size
     * allocates once. */
    void reserve(std::size_t n) { out_.reserve(n); }

    /** Overwrite 4 bytes at an earlier offset (for patching lengths). */
    void patchU32(std::size_t offset, std::uint32_t v);

  private:
    /** Advance the cursor by n bytes; returns where they go. */
    std::uint8_t *
    claim(std::size_t n)
    {
        if (out_.size() - size_ < n)
            grow(n);
        std::uint8_t *p =
            reinterpret_cast<std::uint8_t *>(out_.data()) + size_;
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
    Bytes out_;
    std::size_t size_ = 0;
};

extern template class BasicByteWriter<std::vector<std::uint8_t>>;
extern template class BasicByteWriter<std::string>;

using ByteWriter = BasicByteWriter<std::vector<std::uint8_t>>;
using StringByteWriter = BasicByteWriter<std::string>;

/**
 * Bounds-checked little-endian reader. All accessors return false (and
 * leave the output untouched) past end-of-buffer, and set a sticky error
 * flag, so decoders can batch reads and check ok() once. The
 * fixed-width accessors are inline: the warm cache path decodes a
 * behavior bundle field by field.
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

    bool u8(std::uint8_t &v) { return load(v); }
    bool u16(std::uint16_t &v) { return load(v); }
    bool u32(std::uint32_t &v) { return load(v); }
    bool u64(std::uint64_t &v) { return load(v); }

    bool
    f64(double &v)
    {
        std::uint64_t bits;
        if (!u64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

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
    bool
    take(std::size_t n, const std::uint8_t *&p)
    {
        if (!ok_ || size_ - offset_ < n) {
            ok_ = false;
            return false;
        }
        p = data_ + offset_;
        offset_ += n;
        return true;
    }

    /** The value whose bytes, least significant first, come next. */
    template <typename T>
    bool
    load(T &v)
    {
        const std::uint8_t *p;
        if (!take(sizeof v, p))
            return false;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, p, sizeof v);
        } else {
            T x = 0;
            for (std::size_t i = 0; i < sizeof v; ++i)
                x |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
            v = x;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t offset_ = 0;
    bool ok_ = true;
};

} // namespace fits::bin

#endif // FITS_BINARY_BYTEBUF_HH_
