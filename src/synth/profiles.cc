#include "profiles.hh"

#include "support/rng.hh"
#include "support/strings.hh"

namespace fits::synth {

VendorProfile
netgearProfile()
{
    VendorProfile p;
    p.vendor = "NETGEAR";
    p.series = {"R7000P", "R7800", "R8900", "XR500", "WNR3500",
                "AC1450", "R6400", "R8000"};
    p.binaryNames = {"httpd", "netcgi"};
    p.arch = bin::Arch::Arm;
    p.minCustomFns = 1200;
    p.maxCustomFns = 2300;
    // NETGEAR's getter is distinctive: top-1 mostly succeeds.
    p.numNvramConfounders = 2;
    p.confounderItsSimilarity = 0.25;
    p.strongConfounderWeights = {0.72, 0.20, 0.08};
    p.numErrorPrinters = 6;
    // Large binaries with handler tables and scan loops: Karonte sees
    // more than STA; STA drowns in guarded debug sites.
    p.directBugs = 1;
    p.deepDirectBugs = 1;
    p.scanLoopBugs = 1;
    p.indirectParamBugs = 1;
    p.itsFetchBugs = 4;
    p.itsDeepBugs = 3;
    p.boundsCheckedSites = 5;
    p.deadGuardSites = 3;
    p.escapedSites = 1;
    p.systemDataSites = 2;
    p.encoding = fw::Encoding::None;
    p.bootPadding = 128;
    return p;
}

VendorProfile
dlinkProfile()
{
    VendorProfile p;
    p.vendor = "D-Link";
    p.series = {"DIR826L", "DAP1860", "DIR1960", "DWR921", "DCS935",
                "DIR868L"};
    p.binaryNames = {"miniupnpd", "uhttpd", "prog.cgi"};
    p.arch = bin::Arch::Mips;
    p.minCustomFns = 350;
    p.maxCustomFns = 1400;
    // Strong NVRAM confounders: the true ITS mostly ranks 2nd-3rd.
    p.numNvramConfounders = 4;
    p.confounderItsSimilarity = 0.85;
    p.strongConfounderWeights = {0.38, 0.00, 0.62};
    p.numErrorPrinters = 4;
    p.directBugs = 2;
    p.deepDirectBugs = 0;
    p.scanLoopBugs = 0;
    p.indirectParamBugs = 0;
    p.itsFetchBugs = 2;
    p.itsDeepBugs = 1;
    p.boundsCheckedSites = 1;
    p.deadGuardSites = 0;
    p.escapedSites = 1;
    p.systemDataSites = 1;
    p.encoding = fw::Encoding::Xor;
    p.bootPadding = 32;
    return p;
}

VendorProfile
tplinkProfile()
{
    VendorProfile p;
    p.vendor = "TP-Link";
    p.series = {"AP500", "C2", "W8968", "TD-W9980", "WA901ND",
                "WR941ND", "TX-VG1530", "KC120"};
    p.binaryNames = {"httpd"};
    p.arch = bin::Arch::Arm;
    p.minCustomFns = 250;
    p.maxCustomFns = 1900;
    p.numNvramConfounders = 3;
    p.confounderItsSimilarity = 0.8;
    p.strongConfounderWeights = {0.44, 0.33, 0.23};
    p.numErrorPrinters = 5;
    // Small binaries; Karonte handles most flows, STA sees few.
    p.directBugs = 0;
    p.deepDirectBugs = 0;
    p.scanLoopBugs = 0;
    p.indirectParamBugs = 0;
    p.itsFetchBugs = 1;
    p.itsDeepBugs = 1;
    p.boundsCheckedSites = 0;
    p.deadGuardSites = 0;
    p.escapedSites = 0;
    p.systemDataSites = 1;
    p.encoding = fw::Encoding::Rot;
    p.bootPadding = 48;
    return p;
}

VendorProfile
tendaProfile()
{
    VendorProfile p;
    p.vendor = "Tenda";
    p.series = {"AC9", "AC15", "FH1201", "WH450A", "G3"};
    p.binaryNames = {"httpd"};
    p.arch = bin::Arch::Arm;
    p.minCustomFns = 900;
    p.maxCustomFns = 2000;
    p.numNvramConfounders = 3;
    p.confounderItsSimilarity = 0.7;
    p.strongConfounderWeights = {0.48, 0.26, 0.26};
    p.numErrorPrinters = 4;
    p.directBugs = 1;
    p.deepDirectBugs = 0;
    p.scanLoopBugs = 0;
    p.indirectParamBugs = 0;
    p.itsFetchBugs = 6;
    p.itsDeepBugs = 5;
    p.boundsCheckedSites = 1;
    p.deadGuardSites = 0;
    p.escapedSites = 0;
    p.systemDataSites = 2;
    p.encoding = fw::Encoding::None;
    p.bootPadding = 64;
    return p;
}

VendorProfile
ciscoProfile()
{
    VendorProfile p;
    p.vendor = "Cisco";
    p.series = {"RV130X", "RV340"};
    p.binaryNames = {"httpd"};
    p.arch = bin::Arch::Arm;
    p.minCustomFns = 1200;
    p.maxCustomFns = 1500;
    // Very strong confounders: top-1/top-2 fail, top-3 succeeds (the
    // RV130X row of Table 3).
    p.numNvramConfounders = 5;
    p.confounderItsSimilarity = 0.95;
    p.strongConfounderWeights = {0.00, 0.00, 1.00};
    p.numErrorPrinters = 5;
    p.directBugs = 1;
    p.deepDirectBugs = 0;
    p.scanLoopBugs = 1;
    p.indirectParamBugs = 0;
    p.itsFetchBugs = 20;
    p.itsDeepBugs = 20;
    p.boundsCheckedSites = 4;
    p.deadGuardSites = 4;
    p.escapedSites = 2;
    p.systemDataSites = 3;
    p.encoding = fw::Encoding::None;
    p.bootPadding = 96;
    return p;
}

std::vector<VendorProfile>
vendorProfiles()
{
    return {netgearProfile(), dlinkProfile(), tplinkProfile(),
            tendaProfile(), ciscoProfile()};
}

namespace {

/** Deterministic per-sample jitter so the corpus is not uniform. */
void
jitter(VendorProfile &p, support::Rng &rng)
{
    auto bump = [&rng](int &v, int lo, int hi) {
        v += static_cast<int>(rng.uniformInt(lo, hi));
        if (v < 0)
            v = 0;
    };
    bump(p.directBugs, -1, 0);
    bump(p.scanLoopBugs, -1, 0);
    bump(p.indirectParamBugs, -1, 0);
    bump(p.itsFetchBugs, -1, 2);
    bump(p.itsDeepBugs, -1, 2);
    bump(p.boundsCheckedSites, -1, 1);
    bump(p.deadGuardSites, -1, 1);
    bump(p.systemDataSites, 0, 1);
    bump(p.numNvramConfounders, 0, 1);
}

SampleSpec
makeSample(const VendorProfile &base, std::size_t index, bool latest,
           std::uint64_t seed,
           SampleSpec::FailureMode failure = SampleSpec::FailureMode::None)
{
    support::Rng rng(seed);
    SampleSpec spec;
    spec.profile = base;
    jitter(spec.profile, rng);
    // The paper's dataset spans ARM, AARCH64 and MIPS; NETGEAR's
    // high-end models (R8900/XR500) are AARCH64.
    if (spec.profile.vendor == "NETGEAR" && rng.chance(0.3))
        spec.profile.arch = bin::Arch::Aarch64;
    spec.product = base.series[index % base.series.size()];
    spec.version = support::format(
        "V%d.%d.%d.%d", static_cast<int>(rng.uniformInt(1, 2)),
        static_cast<int>(rng.uniformInt(0, 3)),
        static_cast<int>(rng.uniformInt(0, 9)),
        static_cast<int>(rng.uniformInt(2, 60)));
    spec.name = spec.product + "-" + spec.version;
    spec.latest = latest;
    spec.seed = seed;
    spec.failure = failure;
    if (failure == SampleSpec::FailureMode::OpaqueEncoding)
        spec.profile.encoding = fw::Encoding::Opaque;
    return spec;
}

} // namespace

std::vector<SampleSpec>
standardDataset()
{
    using FM = SampleSpec::FailureMode;
    std::vector<SampleSpec> out;
    std::uint64_t seed = 0xf175e00d00000000ULL;

    auto add = [&out, &seed](const VendorProfile &p, std::size_t idx,
                             bool latest, FM failure = FM::None) {
        out.push_back(makeSample(p, idx, latest, seed, failure));
        seed += 0x9e3779b97f4a7c15ULL;
    };

    const auto ng = netgearProfile();
    const auto dl = dlinkProfile();
    const auto tp = tplinkProfile();
    const auto td = tendaProfile();
    const auto cs = ciscoProfile();

    // --- Karonte dataset --------------------------------------------
    for (std::size_t i = 0; i < 17; ++i)
        add(ng, i, false);
    // D-Link: one opaque-crypto failure, one struct-offset design.
    for (std::size_t i = 0; i < 7; ++i)
        add(dl, i, false);
    add(dl, 7, false, FM::OpaqueEncoding);
    add(dl, 8, false, FM::StructOffset);
    // TP-Link: one opaque, one corrupt, one struct-offset.
    for (std::size_t i = 0; i < 13; ++i)
        add(tp, i, false);
    add(tp, 13, false, FM::OpaqueEncoding);
    add(tp, 14, false, FM::CorruptImage);
    add(tp, 15, false, FM::StructOffset);
    // Tenda: one sample whose file system lacks a network binary.
    for (std::size_t i = 0; i < 6; ++i)
        add(td, i, false);
    add(td, 6, false, FM::NoNetworkBinary);

    // --- Latest firmware --------------------------------------------
    for (std::size_t i = 0; i < 2; ++i)
        add(ng, i, true);
    for (std::size_t i = 0; i < 3; ++i)
        add(dl, i, true);
    for (std::size_t i = 0; i < 2; ++i)
        add(tp, i, true);
    for (std::size_t i = 0; i < 2; ++i)
        add(td, i, true);
    add(cs, 0, true);

    return out;
}

} // namespace fits::synth
