#ifndef FITS_CORE_BEHAVIOR_HH_
#define FITS_CORE_BEHAVIOR_HH_

#include <string>
#include <vector>

#include "analysis/program_analysis.hh"
#include "core/bfv.hh"

namespace fits::core {

/** One analyzed function with its behavior representation. */
struct FunctionRecord
{
    analysis::FnId id = 0;
    ir::Addr entry = 0;
    std::string name;
    /** A non-library function of the network binary. */
    bool isCustom = false;
    /** A library implementation of an anchor function. */
    bool isAnchor = false;
    Bfv bfv;
};

/**
 * The behavioral representation BR of Algorithm 1: one BFV per
 * function, with the custom/anchor partition needed by Algorithm 2.
 */
struct BehaviorRepr
{
    /** Indexed by FnId. */
    std::vector<FunctionRecord> records;
    std::vector<analysis::FnId> customFns;
    std::vector<analysis::FnId> anchorFns;
};

/**
 * Computes behavior representations for every function of a linked
 * program, per Algorithm 1: UCSE-based CFG/CG construction, structural
 * analysis, reaching-definition analysis for the intraprocedural flow
 * features, and call-site analysis with Table-2 backtracking for the
 * interprocedural ones.
 */
class BehaviorAnalyzer
{
  public:
    struct Config
    {
        analysis::UcseConfig ucse;
    };

    /** Cap on backtracked constants classified per argument. A
     * constant: every caller extracts BFVs with this one cap. */
    static constexpr std::size_t kMaxStringsPerArg = 4;

    BehaviorAnalyzer();
    explicit BehaviorAnalyzer(Config config);

    /** Extract BFVs from an existing whole-program analysis (shared
     * with the taint engines to avoid re-analyzing the binary). */
    BehaviorRepr analyze(const analysis::ProgramAnalysis &pa) const;

  private:
    Config config_;
};

} // namespace fits::core

#endif // FITS_CORE_BEHAVIOR_HH_
