/** @file Reference implementations of the per-function analysis
 * kernels and the call graph, kept as test oracles: the plain
 * container-per-row versions (a vector of successor and predecessor
 * vectors per block, hash maps keyed by temporary, block address and
 * function id, one heap-allocated state per explored path). The
 * analysis library computes the same products with flat storage; the
 * kernel oracle test compares the two on the corpus and on random
 * functions. */

#ifndef FITS_TESTS_REFERENCE_ANALYSIS_HH_
#define FITS_TESTS_REFERENCE_ANALYSIS_HH_

#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/callgraph.hh"
#include "analysis/loops.hh"
#include "analysis/params.hh"
#include "analysis/ucse.hh"

namespace fits::reference {

using analysis::FnId;
using ir::Addr;

/** Control-flow graph with one successor and one predecessor vector
 * per block; same edge rules as analysis::Cfg. */
struct Cfg
{
    std::vector<std::vector<std::size_t>> succs;
    std::vector<std::vector<std::size_t>> preds;

    static Cfg build(const ir::Function &fn,
                     const std::unordered_map<Addr, std::vector<Addr>>
                         *resolvedTargets = nullptr);

    std::size_t numBlocks() const { return succs.size(); }
    std::vector<bool> reachable() const;
};

/** Flow-insensitive constant temporaries in two hash maps. */
struct TmpConstMap
{
    std::unordered_map<ir::TmpId, std::uint64_t> values;
    std::unordered_map<ir::TmpId, bool> conflicted;

    static TmpConstMap compute(const ir::Function &fn,
                               const bin::BinaryImage *image);

    std::optional<std::uint64_t> valueOf(ir::TmpId t) const;
    std::optional<std::uint64_t> valueOf(const ir::Operand &op) const;
};

/** UCSE exploration with one heap-allocated state per path. */
analysis::UcseResult explore(const bin::BinaryImage &image,
                             const ir::Function &fn,
                             const analysis::UcseConfig &config = {});

analysis::LoopInfo analyzeLoops(const Cfg &cfg, const ir::Function &fn);

analysis::ParamInfo inferParams(const Cfg &cfg, const ir::Function &fn);

/** Call graph with hash-map per-caller and per-callee site lists. */
struct CallGraph
{
    std::vector<analysis::CallSite> sites;
    std::unordered_map<FnId, std::vector<std::size_t>> byCaller;
    std::unordered_map<FnId, std::vector<std::size_t>> byCallee;

    static CallGraph build(
        const analysis::LinkedProgram &linked,
        const std::unordered_map<FnId, const analysis::UcseTargets *>
            *ucseByFn = nullptr);

    std::vector<std::size_t> sitesOfCaller(FnId caller) const;
    std::vector<std::size_t> sitesOfCallee(FnId callee) const;
    std::size_t distinctCallerCount(FnId callee) const;
    std::size_t libraryCallCount(FnId caller) const;
};

} // namespace fits::reference

#endif // FITS_TESTS_REFERENCE_ANALYSIS_HH_
