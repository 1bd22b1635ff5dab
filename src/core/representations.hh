#ifndef FITS_CORE_REPRESENTATIONS_HH_
#define FITS_CORE_REPRESENTATIONS_HH_

#include "analysis/function_analysis.hh"
#include "mlkit/vector.hh"

namespace fits::core {

/**
 * Function representations compared in Table 7. Bfv is this paper's;
 * the other two are reimplementations of the *feature content* of the
 * published code representations (code-structure features only), which
 * is what the paper's comparison isolates: they capture code-level
 * similarity, not behaviour.
 */
enum class Representation : std::uint8_t {
    Bfv,
    AugmentedCfg,  ///< NERO-style: CFG structure augmented with call
                   ///< statistics
    AttributedCfg, ///< Gemini-style: aggregated per-block attributes
};

/**
 * NERO-style augmented-CFG vector: graph-shape statistics plus call
 * counts — [blocks, edges, backEdges, stmts, avgBlockLen, maxOutDeg,
 * calls, consts, loads, stores].
 */
ml::Vec augmentedCfgVector(const analysis::FunctionAnalysis &fa);

/**
 * Gemini-style attributed-CFG vector: aggregated basic-block
 * attributes — [stmts, arithmetic ops, comparisons, calls, branches,
 * loads+stores, consts, blocks, edges].
 */
ml::Vec attributedCfgVector(const analysis::FunctionAnalysis &fa);

} // namespace fits::core

#endif // FITS_CORE_REPRESENTATIONS_HH_
