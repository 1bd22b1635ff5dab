#ifndef FITS_ANALYSIS_CALLGRAPH_HH_
#define FITS_ANALYSIS_CALLGRAPH_HH_

#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "analysis/linked.hh"
#include "analysis/ucse.hh"

namespace fits::analysis {

/**
 * One call instruction, with its resolution. stmtAddr is the address of
 * the Call statement inside the caller's image.
 */
struct CallSite
{
    FnId caller = 0;
    std::size_t blockIdx = 0;
    std::size_t stmtIdx = 0;
    Addr stmtAddr = 0;
    bool indirect = false;

    LinkedProgram::CallTarget target;

    bool
    resolvesToFunction() const
    {
        return target.kind == LinkedProgram::CallTarget::Kind::Function;
    }

    bool
    isLibraryCall() const
    {
        // Calls through the PLT (named) or to external imports are
        // library calls from the caller's perspective.
        return target.kind ==
                   LinkedProgram::CallTarget::Kind::ExternalImport ||
               (resolvesToFunction() && !target.library.empty());
    }
};

/** Indices into CallGraph::sites() of one caller's sites. */
using SiteIndexRange = std::ranges::iota_view<std::size_t, std::size_t>;

/**
 * Whole-program call graph over a LinkedProgram. Direct calls are
 * resolved through the import table; indirect calls use the UCSE
 * explorer's resolved targets (function-pointer tables).
 *
 * Sites are stored in (caller, block, statement) order, so each
 * caller's sites form one contiguous run of sites(); a second
 * compressed-sparse-row index lists the sites targeting each function,
 * in site order.
 */
class CallGraph
{
  public:
    /**
     * Build the call graph. ucseByFn optionally supplies, indexed by
     * FnId, the explorer targets whose resolvedCalls disambiguate
     * indirect calls (null entries, or no vector, leave every indirect
     * call unresolved).
     */
    static CallGraph build(
        const LinkedProgram &linked,
        const std::vector<const UcseTargets *> *ucseByFn = nullptr);

    const std::vector<CallSite> &sites() const { return sites_; }

    /** Indices into sites() of calls made by `caller`, in (block,
     * statement) order. */
    SiteIndexRange
    sitesOfCaller(FnId caller) const
    {
        if (caller + std::size_t{1} >= callerOffsets_.size())
            return {};
        return {callerOffsets_[caller], callerOffsets_[caller + 1]};
    }

    /** Indices into sites() of calls targeting function `callee`, in
     * ascending order. */
    std::span<const std::size_t> sitesOfCallee(FnId callee) const;

    /** Number of call sites targeting `callee` ("number of callers" in
     * the BFV; the paper counts call sites, which is what separates an
     * ITS from an error printer called from everywhere). */
    std::size_t callerSiteCount(FnId callee) const;

    /** Number of distinct calling functions. */
    std::size_t distinctCallerCount(FnId callee) const;

    /** Call sites in `caller` that target a named library symbol. */
    std::size_t libraryCallCount(FnId caller) const;

  private:
    std::vector<CallSite> sites_;
    /** Sites of caller c: sites_[callerOffsets_[c] .. [c + 1]). */
    std::vector<std::size_t> callerOffsets_;
    /** Sites targeting callee c: calleeSites_[calleeOffsets_[c] ..
     * calleeOffsets_[c + 1]). */
    std::vector<std::size_t> calleeOffsets_;
    std::vector<std::size_t> calleeSites_;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_CALLGRAPH_HH_
