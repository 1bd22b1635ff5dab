#include "image.hh"

namespace fits::bin {

const char *
archName(Arch arch)
{
    switch (arch) {
      case Arch::Arm:     return "ARM";
      case Arch::Aarch64: return "AARCH64";
      case Arch::Mips:    return "MIPS";
    }
    return "?";
}

const Section *
BinaryImage::sectionContaining(Addr addr) const
{
    for (const auto &sec : sections) {
        if (sec.contains(addr))
            return &sec;
    }
    return nullptr;
}

const Section *
BinaryImage::sectionByName(const std::string &secName) const
{
    for (const auto &sec : sections) {
        if (sec.name == secName)
            return &sec;
    }
    return nullptr;
}

Section *
BinaryImage::sectionByName(const std::string &secName)
{
    for (auto &sec : sections) {
        if (sec.name == secName)
            return &sec;
    }
    return nullptr;
}

bool
BinaryImage::isRodata(Addr addr) const
{
    const Section *sec = sectionContaining(addr);
    return sec && (sec->flags & kSecWrite) == 0 &&
           (sec->flags & kSecExec) == 0;
}

bool
BinaryImage::isData(Addr addr) const
{
    const Section *sec = sectionContaining(addr);
    return sec && (sec->flags & kSecWrite) != 0;
}

bool
BinaryImage::isMapped(Addr addr) const
{
    return sectionContaining(addr) != nullptr;
}

std::optional<Addr>
BinaryImage::readWord(Addr addr) const
{
    const Section *sec = sectionContaining(addr);
    if (!sec)
        return std::nullopt;
    const std::size_t off = static_cast<std::size_t>(addr - sec->addr);
    if (off + kPtrSize > sec->bytes.size())
        return std::nullopt;
    Addr v = 0;
    for (std::size_t i = 0; i < kPtrSize; ++i)
        v |= static_cast<Addr>(sec->bytes[off + i]) << (8 * i);
    return v;
}

std::optional<std::string>
BinaryImage::readCString(Addr addr) const
{
    const Section *sec = sectionContaining(addr);
    if (!sec)
        return std::nullopt;
    std::size_t off = static_cast<std::size_t>(addr - sec->addr);
    std::string out;
    while (off < sec->bytes.size()) {
        const char c = static_cast<char>(sec->bytes[off++]);
        if (c == '\0')
            return out;
        out.push_back(c);
    }
    return std::nullopt; // ran off the section without a terminator
}

const Import *
BinaryImage::importAt(Addr pltAddr) const
{
    auto it = importIndex_.find(pltAddr);
    if (it == importIndex_.end())
        return nullptr;
    return &imports[it->second];
}

const Import *
BinaryImage::importByName(const std::string &symName) const
{
    for (const auto &imp : imports) {
        if (imp.name == symName)
            return &imp;
    }
    return nullptr;
}

bool
BinaryImage::isImportAddr(Addr addr) const
{
    return importIndex_.find(addr) != importIndex_.end();
}

Addr
BinaryImage::addImport(const std::string &symName,
                       const std::string &library)
{
    Import imp;
    imp.pltAddr = nextPlt_;
    imp.name = symName;
    imp.library = library;
    nextPlt_ += kPtrSize;
    importIndex_[imp.pltAddr] = imports.size();
    imports.push_back(std::move(imp));
    return imports.back().pltAddr;
}

std::string
BinaryImage::nameOf(Addr addr) const
{
    if (const Import *imp = importAt(addr))
        return imp->name;
    for (const auto &sym : symbols) {
        if (sym.addr == addr)
            return sym.name;
    }
    if (const ir::Function *fn = program.functionAt(addr))
        return fn->name;
    return {};
}

void
BinaryImage::strip()
{
    symbols.clear();
    for (auto &fn : program.functions())
        fn.name.clear();
    stripped = true;
}

std::size_t
BinaryImage::byteSize() const
{
    std::size_t n = 0;
    for (const auto &sec : sections)
        n += sec.bytes.size();
    for (const auto &fn : program.functions())
        n += static_cast<std::size_t>(fn.byteSize());
    return n;
}

void
BinaryImage::reindexImports()
{
    importIndex_.clear();
    Addr maxPlt = kPltBase;
    for (std::size_t i = 0; i < imports.size(); ++i) {
        importIndex_[imports[i].pltAddr] = i;
        if (imports[i].pltAddr + kPtrSize > maxPlt)
            maxPlt = imports[i].pltAddr + kPtrSize;
    }
    nextPlt_ = maxPlt;
}

} // namespace fits::bin
