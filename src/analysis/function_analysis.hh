#ifndef FITS_ANALYSIS_FUNCTION_ANALYSIS_HH_
#define FITS_ANALYSIS_FUNCTION_ANALYSIS_HH_

#include <memory>

#include "analysis/backtrack.hh"
#include "analysis/cfg.hh"
#include "analysis/constmap.hh"
#include "analysis/loops.hh"
#include "analysis/params.hh"
#include "analysis/reachdef.hh"
#include "analysis/ucse.hh"

namespace fits::analysis {

/**
 * All per-function analysis artifacts, computed in dependency order:
 * UCSE exploration (resolving indirect targets; run only when the
 * function holds an indirect Call or Jump), the CFG (with resolved
 * indirect jump edges), dominators/loops, constant temporaries,
 * parameter inference, and reaching definitions with parameter
 * dependence (Algorithm 1 lines 2 and 5-8).
 */
struct FunctionAnalysis
{
    const bin::BinaryImage *image = nullptr;
    const ir::Function *fn = nullptr;

    /** Resolved indirect targets; empty for a function without an
     * indirect site, which is never explored. */
    UcseTargets ucse;
    Cfg cfg;
    LoopInfo loops;
    TmpConstMap consts;
    ParamInfo params;
    ReachingDefs::Result flow;

    /** Union of parameter masks at loop-controlling branches. */
    std::uint8_t loopDepMask = 0;

    /** Build everything for one function. */
    static FunctionAnalysis analyze(const bin::BinaryImage &image,
                                    const ir::Function &fn,
                                    const UcseConfig &config = {});

    /** A backtracker bound to this function's artifacts. */
    ArgBacktracker
    backtracker() const
    {
        return ArgBacktracker(*image, *fn, cfg, consts);
    }
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_FUNCTION_ANALYSIS_HH_
