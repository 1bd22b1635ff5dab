#ifndef FITS_ANALYSIS_PROGRAM_ANALYSIS_HH_
#define FITS_ANALYSIS_PROGRAM_ANALYSIS_HH_

#include <vector>

#include "analysis/callgraph.hh"
#include "analysis/function_analysis.hh"
#include "analysis/linked.hh"

namespace fits::analysis {

/**
 * Whole-program analysis bundle: one FunctionAnalysis per function of a
 * linked program plus the call graph built from their UCSE targets.
 * Computed once per binary and shared by the feature extractor and both
 * taint engines. Borrows the LinkedProgram (and transitively the
 * images), which must outlive it.
 */
struct ProgramAnalysis
{
    const LinkedProgram *linked = nullptr;
    std::vector<FunctionAnalysis> fns;
    CallGraph callGraph;

    static ProgramAnalysis analyze(const LinkedProgram &linked,
                                   const UcseConfig &config = {});

    /** Assemble from precomputed per-function analyses (the corpus
     * benchmark's traced driver concatenates per-image vectors, as
     * `cache::functionAnalyses` returns them). `fns` must be in the
     * linked program's FnId order — each element analyzing exactly
     * `linked.fn(i)` — which per-image `program.functions()` chunks in
     * [main, libs...] order reproduce by construction. Only the call
     * graph is computed here. */
    static ProgramAnalysis
    fromFunctionAnalyses(const LinkedProgram &linked,
                         std::vector<FunctionAnalysis> fns);

    const FunctionAnalysis &
    fn(FnId id) const
    {
        return fns[id];
    }
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_PROGRAM_ANALYSIS_HH_
