#ifndef FITS_ANALYSIS_CFG_HH_
#define FITS_ANALYSIS_CFG_HH_

#include <span>
#include <unordered_map>
#include <vector>

#include "ir/function.hh"

namespace fits::analysis {

using ir::Addr;

/**
 * Control-flow graph of one function. Nodes are indices into
 * Function::blocks; block 0 is the entry.
 *
 * Edges:
 *  - Branch (a conditional side exit that may appear anywhere in the
 *    block): an edge to the taken target; the not-taken path stays
 *    inside the block, so it contributes no edge of its own;
 *  - Jump (direct): the target block;
 *  - Jump (indirect): targets supplied by the UCSE explorer, if any;
 *  - block ends without Jump/Ret: fall-through to the next layout
 *    block (this covers a trailing Branch's not-taken path);
 *  - Ret: no successors.
 *
 * Calls are not block terminators in FIR (as in VEX, control returns to
 * the following statement), so they contribute no CFG edges.
 *
 * Stored in compressed sparse row form: one offsets array (successor
 * rows, then predecessor rows) into one edge array (successor lists,
 * then predecessor lists). Successors are in insertion order,
 * predecessors in edge order.
 */
class Cfg
{
  public:
    /**
     * Build the CFG. resolvedTargets optionally maps the address of an
     * indirect Jump statement to the block addresses the UCSE explorer
     * proved reachable from it.
     */
    static Cfg build(const ir::Function &fn,
                     const std::unordered_map<Addr, std::vector<Addr>>
                         *resolvedTargets = nullptr);

    std::size_t numBlocks() const { return n_; }
    std::size_t entry() const { return 0; }

    std::span<const std::size_t>
    succs(std::size_t block) const
    {
        return row(block);
    }

    std::span<const std::size_t>
    preds(std::size_t block) const
    {
        return row(n_ + 1 + block);
    }

    /** Blocks reachable from the entry (DFS over successor edges). */
    std::vector<bool> reachable() const;

    /** Number of edges in the graph. */
    std::size_t numEdges() const { return edges_.size() / 2; }

  private:
    std::span<const std::size_t>
    row(std::size_t r) const
    {
        return {edges_.data() + offsets_[r],
                offsets_[r + 1] - offsets_[r]};
    }

    std::size_t n_ = 0;
    /** offsets_[b] .. offsets_[b + 1]: successors of block b;
     * offsets_[n + 1 + b] .. offsets_[n + 2 + b]: its predecessors. */
    std::vector<std::size_t> offsets_;
    std::vector<std::size_t> edges_;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_CFG_HH_
