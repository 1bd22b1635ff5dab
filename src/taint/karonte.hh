#ifndef FITS_TAINT_KARONTE_HH_
#define FITS_TAINT_KARONTE_HH_

#include "analysis/program_analysis.hh"
#include "taint/common.hh"

namespace fits::taint {

/**
 * A Karonte-style taint engine: symbolic path exploration from the
 * binary's entry functions, with taint tracked along each explored
 * path. Reproduces the mechanisms that distinguish Karonte in the
 * paper's evaluation:
 *
 *  - *path budget and call-depth limit*: exploration stops at a frame
 *    depth and step budget, so bugs deep in the call chain from a CTS
 *    are missed (the false-negative class the ITSs fix);
 *  - *constraint modeling*: conditions on tainted data constrain it —
 *    a bounds-checked value that later reaches a sink is not reported
 *    (fewer false positives than STA), and branches with constant
 *    conditions are pruned, so dead debug paths do not alert;
 *  - *indirect call resolution*: UCSE-resolved function-pointer
 *    targets are followed, finding handler-table flows STA's
 *    name-based call graph cannot see;
 *  - ITS taint sources are applied at their call sites without
 *    descending into the ITS body, which is exactly how intermediate
 *    sources shorten the analyzed data-flow path.
 */
class KaronteEngine
{
  public:
    struct Config
    {
        /** Maximum call-frame depth from an entry function (the paper
         * observes Karonte reaching depth ~4 on large firmware). */
        int maxCallDepth = 4;

        /** Statement budget per entry function. */
        std::size_t maxStepsPerEntry = 400000;

        /**
         * Whole-binary statement budget for the CTS-rooted
         * exploration — the analysis-time limit the paper describes.
         */
        std::size_t maxTotalSteps = 30000;

        /**
         * Additional budget granted for ITS-rooted exploration. The
         * CTS phases always run first and to the same limit, so the
         * ITS-augmented run finds a strict superset of the vanilla
         * run's bugs — but only as many more as this slice allows,
         * which is why Karonte-ITS gains far fewer bugs than STA-ITS
         * (and why its analysis takes longer, as the paper notes).
         */
        std::size_t maxItsExtraSteps = 60;

        /** Per-(function, block) visit cap across all paths. */
        std::size_t maxVisitsPerBlock = 6;

        /** Treat compare-guarded tainted data as sanitized. */
        bool constraintSanitization = true;

        /** Follow UCSE-resolved indirect call edges. */
        bool resolveIndirectCalls = true;

        /** Wall-clock budget in milliseconds; 0 = unlimited. On
         * expiry exploration stops and the report carries the alerts
         * found so far with deadlineExpired set. */
        double deadlineMs = 0.0;
    };

    KaronteEngine() = default;
    explicit KaronteEngine(Config config) : config_(config) {}

    TaintReport run(const analysis::ProgramAnalysis &pa,
                    const std::vector<TaintSource> &sources) const;

  private:
    Config config_;
};

} // namespace fits::taint

#endif // FITS_TAINT_KARONTE_HH_
