/** @file Reference STA engine, kept as a test oracle: the fixpoint
 * that re-queues every function whenever any summary or global memory
 * cell grows, followed by one collection sweep over all functions that
 * records the alerts. It matches call sites by name on every visit.
 * taint::StaEngine re-queues only dependents and records alerts during
 * the fixpoint; at a completed fixpoint both give the same report. */

#ifndef FITS_TESTS_REFERENCE_STA_HH_
#define FITS_TESTS_REFERENCE_STA_HH_

#include "analysis/program_analysis.hh"
#include "taint/common.hh"

namespace fits::reference {

/** Run the reference STA; deadlineMs 0 means unlimited. */
taint::TaintReport runSta(const analysis::ProgramAnalysis &pa,
                          const std::vector<taint::TaintSource> &sources,
                          double deadlineMs = 0.0);

} // namespace fits::reference

#endif // FITS_TESTS_REFERENCE_STA_HH_
