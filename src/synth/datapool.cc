#include "datapool.hh"

#include <cassert>

namespace fits::synth {

RodataPool::RodataPool(ir::Addr base)
    : base_(base)
{
}

ir::Addr
RodataPool::intern(const std::string &text)
{
    auto it = interned_.find(text);
    if (it != interned_.end())
        return it->second;
    const ir::Addr addr = base_ + bytes_.size();
    bytes_.insert(bytes_.end(), text.begin(), text.end());
    bytes_.push_back(0);
    interned_[text] = addr;
    return addr;
}

ir::Addr
RodataPool::reserveWords(std::size_t n)
{
    const ir::Addr addr = base_ + bytes_.size();
    bytes_.insert(bytes_.end(), n * bin::kPtrSize, 0);
    return addr;
}

void
RodataPool::patchWord(ir::Addr addr, std::uint64_t value)
{
    assert(addr >= base_);
    const std::size_t off = static_cast<std::size_t>(addr - base_);
    assert(off + bin::kPtrSize <= bytes_.size());
    for (std::size_t i = 0; i < bin::kPtrSize; ++i)
        bytes_[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

bin::Section
RodataPool::finish() const
{
    bin::Section sec;
    sec.name = ".rodata";
    sec.addr = base_;
    sec.flags = bin::kSecRead;
    sec.bytes = bytes_;
    return sec;
}

DataPool::DataPool(ir::Addr base)
    : base_(base)
{
}

ir::Addr
DataPool::addWord(std::uint64_t value)
{
    const ir::Addr addr = cursor();
    for (std::size_t i = 0; i < bin::kPtrSize; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    return addr;
}

ir::Addr
DataPool::reserveWords(std::size_t n)
{
    const ir::Addr addr = cursor();
    bytes_.insert(bytes_.end(), n * bin::kPtrSize, 0);
    return addr;
}

void
DataPool::patchWord(ir::Addr addr, std::uint64_t value)
{
    assert(addr >= base_);
    const std::size_t off = static_cast<std::size_t>(addr - base_);
    assert(off + bin::kPtrSize <= bytes_.size());
    for (std::size_t i = 0; i < bin::kPtrSize; ++i)
        bytes_[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

ir::Addr
DataPool::addBytes(const std::vector<std::uint8_t> &newBytes)
{
    const ir::Addr addr = cursor();
    bytes_.insert(bytes_.end(), newBytes.begin(), newBytes.end());
    return addr;
}

bin::Section
DataPool::finish() const
{
    bin::Section sec;
    sec.name = ".data";
    sec.addr = base_;
    sec.flags = bin::kSecRead | bin::kSecWrite;
    sec.bytes = bytes_;
    return sec;
}

} // namespace fits::synth
