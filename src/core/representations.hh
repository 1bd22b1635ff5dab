#ifndef FITS_CORE_REPRESENTATIONS_HH_
#define FITS_CORE_REPRESENTATIONS_HH_

#include "analysis/function_analysis.hh"
#include "mlkit/vector.hh"

namespace fits::core {

/*
 * Table 7's code-structure baselines: the *feature content* of two
 * published code representations, which capture code-level similarity,
 * not behaviour. Only the Table-7 bench computes them.
 */

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
