#ifndef FITS_SYNTH_PROFILES_HH_
#define FITS_SYNTH_PROFILES_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "binary/image.hh"
#include "firmware/fwimg.hh"

namespace fits::synth {

/**
 * Per-vendor generation profile. The knobs encode the firmware traits
 * the paper attributes to each vendor: how distinctive the ITS getter
 * is relative to look-alike config getters (drives top-1 vs top-3
 * precision), how big the network binary is (drives Figure 4), and the
 * mix of data-flow shapes (drives the Table 5/6 engine differences).
 */
struct VendorProfile
{
    std::string vendor;
    std::vector<std::string> series;
    std::vector<std::string> binaryNames;
    bin::Arch arch = bin::Arch::Arm;

    /** Custom-function count range of the network binary. */
    int minCustomFns = 400;
    int maxCustomFns = 1200;

    // ---- ITS-inference difficulty ----------------------------------
    /** NVRAM-style config getters that imitate the ITS shape. */
    int numNvramConfounders = 2;
    /** 0..1: how closely confounders match the ITS behaviour profile
     * (higher -> the true ITS ranks lower). */
    double confounderItsSimilarity = 0.5;
    /** Probability weights for the number (0/1/2) of *strong*
     * confounders — param-bounded config getters that outrank the
     * true ITS. These weights set each vendor's top-1/top-2 rates. */
    std::array<double, 3> strongConfounderWeights{1.0, 0.0, 0.0};
    /** Error-printer functions (many callers, string args). */
    int numErrorPrinters = 4;

    // ---- Taint workload (base counts; jittered per sample) ---------
    int directBugs = 2;        ///< const-address request-buffer flows
    int deepDirectBugs = 0;    ///< same, but behind deep call chains
    int scanLoopBugs = 0;      ///< loop-indexed buffer scans
    int indirectParamBugs = 0; ///< taint crossing indirect calls
    int itsFetchBugs = 4;      ///< shallow flows from the ITS getter
    int itsDeepBugs = 4;       ///< deep call chains from the ITS getter
    int boundsCheckedSites = 2;
    int deadGuardSites = 2;
    int escapedSites = 1;
    int systemDataSites = 2;

    // ---- Packaging --------------------------------------------------
    fw::Encoding encoding = fw::Encoding::None;
    std::size_t bootPadding = 64;
};

/** Profiles of the five vendors in the evaluation. */
VendorProfile netgearProfile();
VendorProfile dlinkProfile();
VendorProfile tplinkProfile();
VendorProfile tendaProfile();
VendorProfile ciscoProfile();

/** The five vendor profiles in the paper's table row order: NETGEAR,
 * D-Link, TP-Link, Tenda, Cisco. */
std::vector<VendorProfile> vendorProfiles();

/** One firmware sample to generate. */
struct SampleSpec
{
    enum class FailureMode : std::uint8_t
    {
        None,
        OpaqueEncoding,  ///< unpack fails: unsupported vendor crypto
        CorruptImage,    ///< unpack fails: checksum mismatch
        NoNetworkBinary, ///< selection fails: no network executable
        StructOffset,    ///< unpacks fine, but no ITS exists by design
    };

    std::string name;    ///< e.g. "R7000P-V1.3.0.8"
    std::string product; ///< series/model
    std::string version;
    bool latest = false; ///< belongs to the "latest firmware" dataset
    /** Vendor mode: keep function symbols instead of stripping (a
     * vendor analyzing its own build — Discussion §5). */
    bool keepSymbols = false;
    std::uint64_t seed = 0;
    VendorProfile profile;
    FailureMode failure = FailureMode::None;
};

/**
 * The 59-sample corpus mirroring the paper's dataset: the Karonte-set
 * counts per vendor (NETGEAR 17, D-Link 9, TP-Link 16, Tenda 7) plus
 * the latest-firmware samples (NETGEAR 2, D-Link 3, TP-Link 2, Tenda
 * 2, Cisco 1), including four pre-processing failures and two
 * struct-offset designs.
 */
std::vector<SampleSpec> standardDataset();

} // namespace fits::synth

#endif // FITS_SYNTH_PROFILES_HH_
