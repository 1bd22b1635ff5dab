#ifndef FITS_ANALYSIS_REACHDEF_HH_
#define FITS_ANALYSIS_REACHDEF_HH_

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/constmap.hh"
#include "support/deadline.hh"

namespace fits::analysis {

/**
 * One reaching definition: a program point that writes a register, a
 * temporary, or a memory cell. Virtual definitions (param >= 0, block ==
 * npos) model the caller-provided values in the argument registers at
 * the function entry; they are what connects the DDG to the function's
 * parameters.
 */
struct Definition
{
    enum class Target : std::uint8_t { Reg, Tmp, MemConst, MemUnknown };

    Target target = Target::Reg;
    ir::RegId reg = 0;
    ir::TmpId tmp = 0;
    std::uint64_t memAddr = 0;

    std::size_t block = npos;
    std::size_t stmt = npos;
    /** Parameter index for virtual entry definitions, else -1. */
    int param = -1;

    bool isVirtual() const { return param >= 0; }

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/**
 * Reaching-definition analysis over one function's CFG, producing the
 * data-dependency graph (DDG) and the parameter-dependence mask of
 * every statement (Algorithm 1, lines 6-8 of the paper).
 *
 * Memory is modeled with one cell per constant store address plus a
 * single "unknown" cell that aliases everything; loads from unknown
 * addresses conservatively use all memory definitions. Calls define the
 * return register and the unknown memory cell (the callee may write
 * memory derived from its arguments), and their argument-register uses
 * exclude virtual definitions: compilers materialize call arguments
 * with explicit writes, so a stale caller-provided value in an argument
 * register is not an argument of the call.
 */
class ReachingDefs
{
  public:
    struct Result
    {
        std::vector<Definition> defs;

        /** DDG edges: def ids reaching the uses of each statement,
         * indexed [block][stmt]. */
        std::vector<std::vector<std::vector<std::uint32_t>>> useDefs;

        /** Parameter mask (bit i = param i) of each definition. */
        std::vector<std::uint8_t> defDeps;

        /** Parameter mask of the inputs of each statement. */
        std::vector<std::vector<std::uint8_t>> stmtDeps;

        /** Union of stmtDeps over all Branch statements. */
        std::uint8_t branchDepMask = 0;

        /** Union of stmtDeps over Branch statements in blocks flagged
         * by LoopInfo::controlsLoop; filled by callers that have loop
         * info (feature extraction), zero otherwise. */
        std::uint8_t loopDepMask = 0;

        /** The fixpoint loops were cut short by the deadline. Every
         * vector is still fully sized — only the masks and IN sets
         * may be under-approximated. */
        bool deadlineExpired = false;
    };

    static Result analyze(const Cfg &cfg, const ir::Function &fn,
                          const TmpConstMap &consts, int numParams,
                          support::Deadline deadline = {});
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_REACHDEF_HH_
