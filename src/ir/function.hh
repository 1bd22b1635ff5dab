#ifndef FITS_IR_FUNCTION_HH_
#define FITS_IR_FUNCTION_HH_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/stmt.hh"
#include "ir/types.hh"

namespace fits::ir {

/**
 * A basic block: a straight-line statement sequence at a fixed address.
 *
 * A block ends either with an explicit terminator (Branch/Jump/Ret) or
 * implicitly falls through to the next block in function layout order
 * (for Branch, the not-taken edge is the fall-through edge).
 */
struct BasicBlock
{
    Addr addr = 0;
    std::vector<Stmt> stmts;

    /** Address of statement i within this block. */
    Addr
    stmtAddr(std::size_t i) const
    {
        return addr + static_cast<Addr>(i) * kStmtSize;
    }

    /** Encoded size of the block in the guest address space. */
    Addr
    byteSize() const
    {
        return static_cast<Addr>(stmts.size()) * kStmtSize;
    }

    /** Last statement, or nullptr if the block is empty. */
    const Stmt *
    terminator() const
    {
        if (stmts.empty() || !stmts.back().isTerminator())
            return nullptr;
        return &stmts.back();
    }
};

/**
 * A function: an entry address, an optional name (empty in stripped
 * binaries), and basic blocks in layout order (blocks[0] is the entry
 * block; its address equals the function entry).
 */
struct Function
{
    Addr entry = 0;
    /** Symbol name; empty for stripped custom functions. */
    std::string name;
    std::vector<BasicBlock> blocks;
    /** One past the largest temporary id used. */
    TmpId numTmps = 0;

    /** Total statement count across all blocks. */
    std::size_t stmtCount() const;

    /** Encoded byte size in the guest address space. */
    Addr byteSize() const;

    /** Index of the block at the given address, or npos. */
    std::size_t blockIndexAt(Addr addr) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/**
 * A lifted program: all functions of one binary, addressable by entry.
 */
class Program
{
  public:
    /** Append a function; entries must be unique. */
    void addFunction(Function fn);

    const std::vector<Function> &functions() const { return functions_; }
    std::vector<Function> &functions() { return functions_; }

    /** Function with the given entry address, or nullptr. */
    const Function *functionAt(Addr entry) const;
    Function *functionAt(Addr entry);

    /** Function whose address range contains addr, or nullptr. */
    const Function *functionContaining(Addr addr) const;

    std::size_t size() const { return functions_.size(); }

  private:
    std::vector<Function> functions_;
    std::unordered_map<Addr, std::size_t> byEntry_;
};

} // namespace fits::ir

#endif // FITS_IR_FUNCTION_HH_
