#ifndef FITS_CORE_BFV_HH_
#define FITS_CORE_BFV_HH_

#include <span>
#include <string>
#include <vector>

#include "mlkit/vector.hh"

namespace fits::core {

/**
 * The Behavioral Feature Vector of Table 1: six structural features
 * capturing static properties and five flow features capturing how the
 * function processes input. The example of §3.2 — fn16 with BFV
 * [17, True, 2, 3, 5, 6, True, True, True, True, 2] — fixes the
 * ordering used here.
 */
struct Bfv
{
    // Structural features (SF).
    double numBlocks = 0;          ///< 1. number of basic blocks
    bool hasLoop = false;          ///< 2. existence of loops
    double numCallers = 0;         ///< 3. number of callers (call sites)
    double numParams = 0;          ///< 4. number of parameters
    double numAnchorCalls = 0;     ///< 5. calls to anchor functions
    double numLibCalls = 0;        ///< 6. calls to library functions

    // Flow features (FF).
    bool paramsControlLoop = false;   ///< 7. params control loops
    bool paramsControlBranch = false; ///< 8. params control branches
    bool paramsToAnchor = false;      ///< 9. params passed to anchors
    bool argsHaveStrings = false;     ///< 10. arguments contain strings
    double numDistinctStrings = 0;    ///< 11. distinct strings, all sites

    static constexpr int kNumFeatures = 11;

    /** Short name of feature index 0..10 ("bb", "loops", ...). */
    static const char *featureName(int index);

    /** Writes the 11 features to `out` in Table-1 order: the one
     * definition of that order. */
    void write(std::span<double, kNumFeatures> out) const;

    /** The 11-dimensional vector in Table-1 order. Serves the traced
     * corpus benchmark (corpusbench/corpus_trace.cc) until ROADMAP
     * item 3 step B. */
    ml::Vec toVector() const;

    /**
     * Indices of the features, in Table-1 order, that remain when one
     * is removed (the CF-k ablation of §4.4; dropIndex is 0-based) or
     * only one is kept (keepIndex >= 0, the single-feature experiment;
     * it overrides dropIndex). An out-of-range index keeps them all.
     */
    static std::vector<int> keptFeatures(int dropIndex, int keepIndex);
};

} // namespace fits::core

#endif // FITS_CORE_BFV_HH_
