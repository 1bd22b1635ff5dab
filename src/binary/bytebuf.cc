#include "bytebuf.hh"

#include <algorithm>
#include <cstring>
#include <utility>

namespace fits::bin {

namespace {

/** Zero-filled room kept past the cursor: one page. */
constexpr std::size_t kCommitBytes = 4096;

} // namespace

template <typename Bytes>
void
BasicByteWriter<Bytes>::grow(std::size_t n)
{
    const std::size_t need = size_ + n;
    if (need > out_.capacity())
        out_.reserve(std::max({need, 2 * out_.capacity(), kCommitBytes}));
    out_.resize(
        std::min(out_.capacity(), std::max(need, size_ + kCommitBytes)));
}

template <typename Bytes>
void
BasicByteWriter<Bytes>::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty())
        std::memcpy(claim(s.size()), s.data(), s.size());
}

template <typename Bytes>
void
BasicByteWriter<Bytes>::raw(const std::vector<std::uint8_t> &bytes)
{
    if (!bytes.empty())
        std::memcpy(claim(bytes.size()), bytes.data(), bytes.size());
}

template <typename Bytes>
void
BasicByteWriter<Bytes>::f64s(const std::vector<double> &values)
{
    u32(static_cast<std::uint32_t>(values.size()));
    if constexpr (std::endian::native == std::endian::little) {
        if (!values.empty())
            std::memcpy(claim(8 * values.size()), values.data(),
                        8 * values.size());
    } else {
        for (double v : values)
            f64(v);
    }
}

template <typename Bytes>
Bytes
BasicByteWriter<Bytes>::take()
{
    out_.resize(size_);
    size_ = 0;
    return std::exchange(out_, {});
}

template <typename Bytes>
void
BasicByteWriter<Bytes>::patchU32(std::size_t offset, std::uint32_t v)
{
    if (offset > size_ || size_ - offset < 4)
        return;
    store(reinterpret_cast<std::uint8_t *>(out_.data()) + offset, v);
}

template class BasicByteWriter<std::vector<std::uint8_t>>;
template class BasicByteWriter<std::string>;

bool
ByteReader::f64s(std::vector<double> &values)
{
    std::uint32_t n;
    const std::uint8_t *p;
    if (!u32(n) || !take(8 * std::size_t{n}, p))
        return false;
    values.resize(n);
    if constexpr (std::endian::native == std::endian::little) {
        if (n != 0)
            std::memcpy(values.data(), p, 8 * std::size_t{n});
    } else {
        ByteReader elems(p, 8 * std::size_t{n});
        for (double &v : values)
            elems.f64(v);
    }
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
