#include "function.hh"

#include <cassert>

namespace fits::ir {

std::size_t
Function::stmtCount() const
{
    std::size_t n = 0;
    for (const auto &block : blocks)
        n += block.stmts.size();
    return n;
}

Addr
Function::byteSize() const
{
    return static_cast<Addr>(stmtCount()) * kStmtSize;
}

std::size_t
Function::blockIndexAt(Addr addr) const
{
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i].addr == addr)
            return i;
    }
    return npos;
}

void
Program::addFunction(Function fn)
{
    assert(byEntry_.find(fn.entry) == byEntry_.end() &&
           "duplicate function entry");
    byEntry_[fn.entry] = functions_.size();
    functions_.push_back(std::move(fn));
}

const Function *
Program::functionAt(Addr entry) const
{
    auto it = byEntry_.find(entry);
    if (it == byEntry_.end())
        return nullptr;
    return &functions_[it->second];
}

Function *
Program::functionAt(Addr entry)
{
    auto it = byEntry_.find(entry);
    if (it == byEntry_.end())
        return nullptr;
    return &functions_[it->second];
}

const Function *
Program::functionContaining(Addr addr) const
{
    for (const auto &fn : functions_) {
        if (addr >= fn.entry && addr < fn.entry + fn.byteSize())
            return &fn;
    }
    return nullptr;
}

} // namespace fits::ir
