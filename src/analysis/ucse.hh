#ifndef FITS_ANALYSIS_UCSE_HH_
#define FITS_ANALYSIS_UCSE_HH_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "binary/image.hh"
#include "ir/function.hh"
#include "support/deadline.hh"

namespace fits::analysis {

using ir::Addr;

/**
 * Abstract value tracked by the under-constrained symbolic explorer:
 * a known constant, an unconstrained function argument (the "under-
 * constrained" part — analysis starts at the function entry with
 * arguments left symbolic), or unknown.
 */
struct AbsVal
{
    enum class Kind : std::uint8_t { Unknown, Const, Arg };

    Kind kind = Kind::Unknown;
    std::uint64_t value = 0;
    int arg = -1;

    static AbsVal
    unknown()
    {
        return {};
    }

    static AbsVal
    constant(std::uint64_t v)
    {
        AbsVal a;
        a.kind = Kind::Const;
        a.value = v;
        return a;
    }

    static AbsVal
    argument(int i)
    {
        AbsVal a;
        a.kind = Kind::Arg;
        a.arg = i;
        return a;
    }

    bool isConst() const { return kind == Kind::Const; }
    bool isArg() const { return kind == Kind::Arg; }
    bool isUnknown() const { return kind == Kind::Unknown; }
};

/** Re-entry bound per block, which also bounds loop unrolling. A
 * constant: every caller explores with this one bound. */
inline constexpr std::size_t kUcseMaxVisitsPerBlock = 4;

/** Tuning knobs for the explorer. */
struct UcseConfig
{
    /** Overall statement budget per function. */
    std::size_t maxSteps = 50000;
    /** Wall-clock budget; default never expires. Checked coarsely in
     * the exploration loop, so expiry yields partial results rather
     * than an error. */
    support::Deadline deadline;
};

/** What the rest of the analysis reads of an exploration: the
 * resolved indirect targets (for the CFG and the call graph) and
 * whether the deadline cut it short. */
struct UcseTargets
{
    /** Indirect Call statement address -> resolved callee addresses. */
    std::unordered_map<Addr, std::vector<Addr>> resolvedCalls;
    /** Indirect Jump statement address -> resolved block addresses. */
    std::unordered_map<Addr, std::vector<Addr>> resolvedJumps;
    /** The wall-clock deadline cut exploration short; the resolved
     * targets are partial. */
    bool deadlineExpired = false;
};

/** Results of exploring one function: the targets plus how far the
 * exploration went. */
struct UcseResult : UcseTargets
{
    /** Blocks reached by at least one explored path (partial, too,
     * when deadlineExpired). */
    std::vector<bool> reachedBlocks;
    std::size_t steps = 0;
    bool budgetExhausted = false;
};

/**
 * Under-constrained symbolic explorer over FIR, in the spirit of UC-KLEE
 * as used by FITS: analysis starts directly at the entry of the function
 * under analysis with its arguments unconstrained, propagates constants
 * through temporaries and registers, folds binary operations, reads
 * initialized image memory for loads from constant addresses (which is
 * how jump tables and function-pointer tables resolve), and forks on
 * branches whose condition is not constant. Exploration is bounded by a
 * statement budget and a per-block visit bound, trading completeness for
 * the tractable memory behaviour the paper requires.
 */
class UcseExplorer
{
  public:
    explicit UcseExplorer(const bin::BinaryImage &image,
                          UcseConfig config = {});

    /** Explore fn from its entry. */
    UcseResult explore(const ir::Function &fn) const;

  private:
    const bin::BinaryImage &image_;
    UcseConfig config_;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_UCSE_HH_
