#ifndef FITS_TAINT_COMMON_HH_
#define FITS_TAINT_COMMON_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/types.hh"

namespace fits::taint {

/** Vulnerability classes detected by the engines (§3.4). */
enum class VulnClass : std::uint8_t { BufferOverflow, CommandInjection };

const char *vulnClassName(VulnClass vclass);

/** A risky library function used as a sink. */
struct SinkSpec
{
    std::string name;
    VulnClass vclass = VulnClass::BufferOverflow;
    /** Argument indices whose taint makes the call dangerous (e.g. the
     * source operand of strcpy, the format inputs of sprintf, the
     * command of system). */
    std::vector<int> taintedArgs;
};

/** The sink set of the paper: buffer-overflow-prone copy/format
 * functions and command-execution functions. */
const std::vector<SinkSpec> &defaultSinks();

/** Lookup a sink spec by symbol name; nullptr if not a sink. */
const SinkSpec *sinkByName(const std::string &name);

/**
 * A taint source: either a classical taint source (CTS — an interface
 * library function such as recv, identified by import name) or an
 * intermediate taint source (ITS — a custom function identified by its
 * entry address in the network binary, with the taint origin produced
 * during ITS verification).
 */
struct TaintSource
{
    enum class Kind : std::uint8_t { Cts, Its };
    enum class Origin : std::uint8_t {
        ReturnValue, ///< the return register carries user data
        PointerArg,  ///< the buffer behind argument `pointerArg` does
    };

    Kind kind = Kind::Cts;
    std::string name;       ///< import name (CTS) / display label (ITS)
    ir::Addr entry = 0;     ///< custom function entry (ITS only)
    Origin origin = Origin::PointerArg;
    int pointerArg = 1;

    static TaintSource cts(std::string name, Origin origin,
                           int pointerArg = 1);
    static TaintSource its(ir::Addr entry, std::string label);
};

/** The CTS set used by the evaluation: interface library functions
 * that receive user data. */
std::vector<TaintSource> classicalTaintSources();

/** Configuration keys FITS treats as system data (subnet masks, MAC
 * addresses, ...). ITS flows indexed by these keys are the
 * false-positive class the STA-ITS string filter removes. */
const std::vector<std::string> &systemDataKeys();

bool isSystemDataKey(const std::string &key);

/**
 * When a source writes user data through a pointer (recv's buffer),
 * the engines taint this many consecutive byte cells starting at the
 * resolved address — the memory-cell equivalent of tainting the whole
 * destination buffer.
 */
constexpr ir::Addr kPointerSeedRange = 64;

/** One taint-analysis report entry: tainted data reached a sink. */
struct Alert
{
    ir::Addr sinkSite = 0; ///< address of the sink call statement
    std::string sinkName;
    VulnClass vclass = VulnClass::BufferOverflow;
    /** Bitmask over the engine's label table (see LabelInfo). */
    std::uint64_t labelMask = 0;
    /** True if at least one contributing label carries user data (as
     * opposed to system data fetched through an ITS). */
    bool hasUserDataLabel = false;
    /** Function (entry address) containing the sink. */
    ir::Addr inFunction = 0;
    /** Index of the image (main binary / library) the sink lives in;
     * part of the deterministic report ordering. */
    std::size_t imageIndex = 0;
};

/**
 * Order alerts by the stable key (image, sink address, sink name,
 * label mask, containing function) so reports — and therefore
 * corpus-level diffs — are reproducible regardless of container
 * iteration order or worker count.
 */
void sortAlerts(std::vector<Alert> &alerts);

/** What one taint label stands for. */
struct LabelInfo
{
    std::size_t sourceIndex = 0; ///< index into the source list
    bool systemData = false;     ///< ITS flow keyed by a system key
    std::string description;
};

/** Output of one engine run. */
struct TaintReport
{
    std::vector<Alert> alerts;
    std::vector<LabelInfo> labels;
    double analysisMs = 0.0;
    std::size_t steps = 0;
    bool budgetExhausted = false;
    /** The wall-clock deadline cut the engine short; alerts are a
     * valid partial result, not a full sweep. */
    bool deadlineExpired = false;

    /** Alerts after dropping pure system-data flows (the STA-ITS
     * string-matching filter of §4.3). */
    std::vector<Alert> filteredAlerts() const;
};

} // namespace fits::taint

#endif // FITS_TAINT_COMMON_HH_
