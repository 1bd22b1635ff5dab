#ifndef FITS_ANALYSIS_REACHDEF_HH_
#define FITS_ANALYSIS_REACHDEF_HH_

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/constmap.hh"
#include "support/deadline.hh"

namespace fits::analysis {

/**
 * Parameter dependence of every statement of one function (Algorithm 1,
 * lines 6-8 of the paper): bit i of a statement's mask is set when an
 * input of the statement may carry the value the caller passed in
 * argument register i.
 *
 * This is reaching definitions folded into one forward may-dataflow of
 * u8 parameter masks, joined by OR: each register, temporary and memory
 * cell carries the union of the masks of the definitions that reach it.
 * Memory is modeled with one cell per constant store address, which a
 * later store to the same address overwrites, plus a single "unknown"
 * cell that aliases everything and is never cleared; loads from unknown
 * addresses read every cell. Calls define the return register and the
 * unknown memory cell (the callee may write memory derived from its
 * arguments), and read only argument registers written inside the
 * function: compilers materialize call arguments with explicit writes,
 * so a stale caller-provided value in an argument register is not an
 * argument of the call.
 */
class ReachingDefs
{
  public:
    struct Result
    {
        /** Parameter mask of the inputs of each statement, indexed
         * [block][stmt]. */
        std::vector<std::vector<std::uint8_t>> stmtDeps;

        /** Union of stmtDeps over all Branch statements. */
        std::uint8_t branchDepMask = 0;

        /** The fixpoint was cut short by the deadline. stmtDeps is
         * still fully sized; its masks may be under-approximated. */
        bool deadlineExpired = false;
    };

    static Result analyze(const Cfg &cfg, const ir::Function &fn,
                          const TmpConstMap &consts, int numParams,
                          support::Deadline deadline = {});
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_REACHDEF_HH_
