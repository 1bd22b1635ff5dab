#ifndef FITS_ANALYSIS_SCRATCH_HH_
#define FITS_ANALYSIS_SCRATCH_HH_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/ucse.hh"

namespace fits::analysis {

class Cfg;

namespace detail {

/**
 * Working buffers of the per-function kernels, one set per thread.
 * A kernel resizes what it needs and leaves the capacity behind, so
 * once a thread has analyzed its largest function, analyzing another
 * allocates only the kernels' results. The kernels never nest: each
 * finishes with the buffers before the next one starts.
 */
struct Scratch
{
    /** Depth-first search: visited marks, (block, next successor)
     * frames, and the postorder they produce. */
    std::vector<char> seen;
    std::vector<std::pair<std::size_t, std::size_t>> dfs;
    std::vector<std::size_t> order;
    std::vector<std::size_t> rpoIndex;
    /** Plain block stacks and marks (loop bodies, reachability). */
    std::vector<std::size_t> stack;
    std::vector<char> visited;
    /** CFG edges in insertion order, before they are laid out. */
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    /** Dataflow states: one row per block, the row being computed,
     * the entry row, and per-block dirty flags. */
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> cur;
    std::vector<std::uint8_t> entryIn;
    std::vector<char> dirty;
    /** Distinct constant store addresses (reaching definitions). */
    std::vector<std::uint64_t> cells;
    /** UCSE: the running path state, the stack of pending path
     * states (one fixed-width frame each) and their blocks, and the
     * per-block visit counts. */
    std::vector<AbsVal> state;
    std::vector<AbsVal> frames;
    std::vector<std::size_t> frameBlocks;
    std::vector<std::size_t> visits;
};

/** This thread's buffers. */
Scratch &scratch();

/**
 * Postorder of the blocks reachable from the entry, visiting
 * successors in edge order: fills s.order, and marks the visited
 * blocks in s.seen (sized to the block count). Uses s.dfs.
 */
void postorder(const Cfg &cfg, Scratch &s);

} // namespace detail
} // namespace fits::analysis

#endif // FITS_ANALYSIS_SCRATCH_HH_
