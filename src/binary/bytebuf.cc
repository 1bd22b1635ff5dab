#include "bytebuf.hh"

#include <algorithm>
#include <cstring>
#include <utility>

namespace fits::bin {

namespace {

/** Zero-filled room kept past the cursor: one page. */
constexpr std::size_t kCommitBytes = 4096;

} // namespace

void
ByteWriter::grow(std::size_t n)
{
    const std::size_t need = size_ + n;
    if (need > out_.capacity())
        out_.reserve(std::max({need, 2 * out_.capacity(), kCommitBytes}));
    out_.resize(
        std::min(out_.capacity(), std::max(need, size_ + kCommitBytes)));
}

void
ByteWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty())
        std::memcpy(claim(s.size()), s.data(), s.size());
}

void
ByteWriter::raw(const std::vector<std::uint8_t> &bytes)
{
    if (!bytes.empty())
        std::memcpy(claim(bytes.size()), bytes.data(), bytes.size());
}

std::vector<std::uint8_t>
ByteWriter::take()
{
    out_.resize(size_);
    size_ = 0;
    return std::exchange(out_, {});
}

void
ByteWriter::patchU32(std::size_t offset, std::uint32_t v)
{
    if (offset > size_ || size_ - offset < 4)
        return;
    store(out_.data() + offset, v);
}

bool
ByteReader::take(std::size_t n, const std::uint8_t *&p)
{
    if (!ok_ || size_ - offset_ < n) {
        ok_ = false;
        return false;
    }
    p = data_ + offset_;
    offset_ += n;
    return true;
}

bool
ByteReader::u8(std::uint8_t &v)
{
    const std::uint8_t *p;
    if (!take(1, p))
        return false;
    v = p[0];
    return true;
}

bool
ByteReader::u16(std::uint16_t &v)
{
    const std::uint8_t *p;
    if (!take(2, p))
        return false;
    v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    return true;
}

bool
ByteReader::u32(std::uint32_t &v)
{
    const std::uint8_t *p;
    if (!take(4, p))
        return false;
    v = static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    return true;
}

bool
ByteReader::u64(std::uint64_t &v)
{
    std::uint32_t lo, hi;
    if (!u32(lo) || !u32(hi))
        return false;
    v = static_cast<std::uint64_t>(lo) |
        (static_cast<std::uint64_t>(hi) << 32);
    return true;
}

bool
ByteReader::str(std::string &s)
{
    std::uint32_t n;
    if (!u32(n))
        return false;
    const std::uint8_t *p;
    if (!take(n, p))
        return false;
    s.assign(reinterpret_cast<const char *>(p), n);
    return true;
}

bool
ByteReader::raw(std::vector<std::uint8_t> &bytes, std::size_t n)
{
    const std::uint8_t *p;
    if (!take(n, p))
        return false;
    bytes.assign(p, p + n);
    return true;
}

bool
ByteReader::seek(std::size_t offset)
{
    if (offset > size_) {
        ok_ = false;
        return false;
    }
    offset_ = offset;
    return true;
}

} // namespace fits::bin
