#ifndef FITS_TAINT_STA_HH_
#define FITS_TAINT_STA_HH_

#include "analysis/program_analysis.hh"
#include "taint/common.hh"

namespace fits::taint {

/**
 * STA: the static taint analysis engine of §3.4. A whole-program,
 * summary-propagating dataflow over FIR: taint labels flow through
 * registers, temporaries, addressable memory cells and an "unknown"
 * memory bucket; functions expose parameter-in / return-out / memory-out
 * masks, and the engine re-visits a function whenever something it
 * reads grows, until nothing does. Every visit records the sink alerts
 * it sees; hit masks only grow, so a completed fixpoint reports what
 * its final state reaches.
 *
 * Two deliberate precision properties reproduce the paper's findings:
 *  - sanitization is data-only (storing constants over tainted memory
 *    clears it, per §3.4), so validation via *control flow* — bounds
 *    checks guarding a copy — is invisible, which is STA's main
 *    false-positive class;
 *  - the call graph view is name/entry-based like the IDA-Pro CG the
 *    paper built on, so indirect calls are not followed (Karonte's
 *    symbolic execution does follow them), which is STA's main
 *    false-negative class.
 */
class StaEngine
{
  public:
    struct Config
    {
        /** Wall-clock budget in milliseconds; 0 = unlimited. On
         * expiry the fixpoint stops where it is and one collection
         * sweep over every function records what the state reached,
         * so the report carries partial alerts with deadlineExpired
         * set. */
        double deadlineMs = 0.0;
    };

    StaEngine() = default;
    explicit StaEngine(Config config) : config_(config) {}

    /** Run taint analysis with the given sources. */
    TaintReport run(const analysis::ProgramAnalysis &pa,
                    const std::vector<TaintSource> &sources) const;

  private:
    Config config_;
};

} // namespace fits::taint

#endif // FITS_TAINT_STA_HH_
