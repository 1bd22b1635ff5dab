#ifndef FITS_TAINT_RUN_INDEX_HH_
#define FITS_TAINT_RUN_INDEX_HH_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/program_analysis.hh"
#include "taint/common.hh"

namespace fits::taint {

/**
 * The label bit assignment of one engine run. Each CTS gets one bit;
 * each ITS gets two — one for flows indexed by user-data keys and one
 * for flows indexed by system-data keys (subnet mask, MAC, ...). The
 * split is what makes the §4.3 string filter a pure mask operation.
 */
struct LabelTable
{
    struct SourceBits
    {
        std::uint64_t userBit = 0;
        std::uint64_t systemBit = 0; ///< 0 for CTS sources
    };

    std::vector<LabelInfo> labels;
    std::vector<SourceBits> bySource;
    /** Union of all user-data bits. */
    std::uint64_t userMask = 0;

    bool
    hasUserData(std::uint64_t mask) const
    {
        return (mask & userMask) != 0;
    }
};

/** Assign label bits for the given sources (at most 64 bits total;
 * surplus sources share the last bit, which only coarsens reports). */
LabelTable buildLabelTable(const std::vector<TaintSource> &sources);

/** A set of taint labels: one bit per LabelTable entry. */
using Mask = std::uint64_t;

/** Memory cells are keyed per image so overlapping address spaces of
 * the main binary and its libraries do not alias. */
using CellKey = std::uint64_t;

inline CellKey
cellKey(std::size_t imageIdx, ir::Addr addr)
{
    return (static_cast<CellKey>(imageIdx) << 48) | addr;
}

/** Imports whose primary effect is writing caller memory; the source
 * operands' taint lands in the destination. */
bool isMemoryWriter(const std::string &name);

/**
 * The front end both taint engines share for one run: what the
 * sources, sinks and call sites of a ProgramAnalysis mean, decided
 * once. It holds the label table, the image index of every function,
 * the ITS source of every function, what each call site's target
 * means (sink, CTS source, memory writer), the §4.3 user/system
 * labelling of ITS call sites, and the alert map that merges repeated
 * hits on one sink site. The engines own one as a plain member and
 * keep only their propagation.
 */
class RunIndex
{
  public:
    /** Returned by itsSource and SiteClass::cts for "not a source". */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** What the target name of one call site means to the engines. */
    struct SiteClass
    {
        /** The sink the site calls, or null. */
        const SinkSpec *sink = nullptr;
        /** Source index of the CTS import the site calls, or npos. */
        std::size_t cts = npos;
        /** The target writes caller memory (isMemoryWriter). */
        bool memoryWriter = false;
    };

    /** `resolveIndirectCalls` keeps UCSE-resolved indirect call sites
     * visible to sitesAt; without it they are invisible. */
    RunIndex(const analysis::ProgramAnalysis &pa,
             const std::vector<TaintSource> &sources,
             bool resolveIndirectCalls);

    const LabelTable &labels() const { return labelTable_; }

    /** Index of the image (main binary first) function `id` lives in. */
    std::size_t imageOf(analysis::FnId id) const { return imageOf_[id]; }

    /** Source index of the ITS whose entry is function `fn`, or npos. */
    std::size_t itsSource(analysis::FnId fn) const { return itsByFn_[fn]; }

    /** What call-graph site `siteIdx` calls. */
    const SiteClass &
    siteClass(std::size_t siteIdx) const
    {
        return siteClass_[siteIdx];
    }

    /** Call-graph site indices of the call statement (block, stmt) of
     * `caller`; empty when no visible site is there. */
    analysis::SiteIndexRange sitesAt(analysis::FnId caller,
                                     std::size_t block,
                                     std::size_t stmt) const;

    /** Seed label for call site `siteIdx` of ITS source `sourceIdx`:
     * its system-data bit when the key string the caller passes
     * (resolved with the Table-2 backtracker, as the paper's string
     * matching does) is a system-data key, else its user-data bit.
     * Cached per site. */
    Mask itsLabelAt(std::size_t siteIdx, std::size_t sourceIdx);

    /** Record that `mask` reached `sink` at `sinkSite` in `inFn`;
     * hits on one (image, site) merge into one alert. A zero mask
     * records nothing. */
    void recordAlert(analysis::FnId inFn, ir::Addr sinkSite,
                     const SinkSpec &sink, Mask mask);

    /** A report holding the label table and the recorded alerts in
     * sortAlerts order. Moves the alerts out. */
    TaintReport takeReport();

  private:
    const analysis::ProgramAnalysis &pa_;
    const bool resolveIndirectCalls_;
    LabelTable labelTable_;
    std::vector<std::size_t> imageOf_;
    std::vector<std::size_t> itsByFn_;
    std::vector<SiteClass> siteClass_;
    std::unordered_map<std::size_t, Mask> itsSiteLabel_;
    std::map<std::pair<std::size_t, ir::Addr>, Alert> alerts_;
};

} // namespace fits::taint

#endif // FITS_TAINT_RUN_INDEX_HH_
