#ifndef FITS_SYNTH_MANIFEST_HH_
#define FITS_SYNTH_MANIFEST_HH_

#include <string>
#include <vector>

#include "ir/types.hh"

namespace fits::synth {

/**
 * Classification of every planted sink call site. This is the ground
 * truth that replaces the paper's manual verification / device
 * debugging: an alert at a site is a true positive iff the site's
 * class is a real bug.
 */
enum class SiteClass : std::uint8_t
{
    RealBug,      ///< unsanitized user data reaches the sink
    BoundsChecked,///< a length check guards the copy (not a bug)
    DeadGuard,    ///< sink is behind a constant-false debug guard
    Escaped,      ///< a custom escape/sanitize function intervenes
    SystemData,   ///< data is device config (MAC, mask), not user input
};

const char *siteClassName(SiteClass cls);

/** How the flow reaches the sink — determines which engines can see
 * it; recorded for per-experiment diagnostics. */
enum class FlowKind : std::uint8_t
{
    DirectGlobal,  ///< handler loads the request buffer at a constant
                   ///< address
    ScanLoop,      ///< handler scans the buffer with a loop index
    ItsFetch,      ///< data comes from an ITS getter's return value
    ItsDeepChain,  ///< ItsFetch, then a deep call chain to the sink
    IndirectParam, ///< tainted data crosses an indirect call as an
                   ///< argument
    ConfigOnly,    ///< no user data involved at all
};

const char *flowKindName(FlowKind kind);

/** One planted sink call site. */
struct SinkSite
{
    ir::Addr addr = 0;   ///< statement address of the sink call
    SiteClass cls = SiteClass::RealBug;
    FlowKind flow = FlowKind::DirectGlobal;
    std::string sinkName;

    bool isBug() const { return cls == SiteClass::RealBug; }
};

/** Ground truth for one generated firmware sample. */
struct GroundTruth
{
    /** Entry addresses of functions that genuinely are ITSs. */
    std::vector<ir::Addr> itsFunctions;

    /** Entry addresses of ITS look-alike confounders (not ITSs). */
    std::vector<ir::Addr> confounders;

    std::vector<SinkSite> sinkSites;

    /** False if this sample uses the struct-offset design in which no
     * custom function qualifies as an ITS (§4.2's two failures). */
    bool hasIts = true;

    /** The site record at an address, or nullptr. */
    const SinkSite *siteAt(ir::Addr addr) const;

    std::size_t bugCount() const;
};

} // namespace fits::synth

#endif // FITS_SYNTH_MANIFEST_HH_
