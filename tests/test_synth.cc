/** @file Unit tests for the synthetic firmware generator: determinism,
 * ground-truth consistency, corpus composition, and structural validity
 * of everything it emits. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "binary/fbin.hh"
#include "core/anchors.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "ir/validate.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "synth/libc_gen.hh"
#include "synth/wordpools.hh"
#include "taint/common.hh"

namespace fits::synth {
namespace {

SampleSpec
smallSpec(std::uint64_t seed = 0xabcd)
{
    SampleSpec spec;
    spec.profile = tendaProfile();
    spec.profile.minCustomFns = 150;
    spec.profile.maxCustomFns = 200;
    spec.product = "AC9";
    spec.version = "V1";
    spec.name = "AC9-V1";
    spec.seed = seed;
    return spec;
}

TEST(LibcGen, ExportsAllCoreAnchors)
{
    const bin::BinaryImage libc = generateLibc();
    std::set<std::string> names;
    for (const auto &fn : libc.program.functions())
        names.insert(fn.name);
    for (const char *anchor :
         {"strcpy", "strncpy", "memcmp", "strcmp", "strncmp",
          "strstr", "strchr", "strlen", "memcpy", "memset",
          "strdup", "strtok"}) {
        EXPECT_TRUE(names.count(anchor)) << anchor;
    }
    // Plus non-anchor realism.
    EXPECT_TRUE(names.count("malloc"));
    EXPECT_TRUE(names.count("atoi"));
}

TEST(LibcGen, AllFunctionsValidate)
{
    const bin::BinaryImage libc = generateLibc();
    const auto problems = ir::validateProgram(libc.program);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
}

TEST(HttpdGen, DeterministicForEqualSeeds)
{
    const auto a = generateHttpd(smallSpec(7));
    const auto b = generateHttpd(smallSpec(7));
    EXPECT_EQ(bin::writeBinary(a.image), bin::writeBinary(b.image));
    EXPECT_EQ(a.truth.sinkSites.size(), b.truth.sinkSites.size());
    EXPECT_EQ(a.truth.itsFunctions, b.truth.itsFunctions);
}

TEST(HttpdGen, DifferentSeedsDiffer)
{
    const auto a = generateHttpd(smallSpec(1));
    const auto b = generateHttpd(smallSpec(2));
    EXPECT_NE(bin::writeBinary(a.image), bin::writeBinary(b.image));
}

TEST(HttpdGen, ProgramValidates)
{
    const auto result = generateHttpd(smallSpec());
    const auto problems = ir::validateProgram(result.image.program);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
}

TEST(HttpdGen, IsStrippedButKeepsImports)
{
    const auto result = generateHttpd(smallSpec());
    EXPECT_TRUE(result.image.stripped);
    EXPECT_TRUE(result.image.symbols.empty());
    for (const auto &fn : result.image.program.functions())
        EXPECT_TRUE(fn.name.empty());
    EXPECT_NE(result.image.importByName("recv"), nullptr);
    EXPECT_NE(result.image.importByName("strcmp"), nullptr);
}

TEST(HttpdGen, FunctionCountWithinProfile)
{
    const auto spec = smallSpec();
    const auto result = generateHttpd(spec);
    EXPECT_GE(result.image.program.size(),
              static_cast<std::size_t>(spec.profile.minCustomFns));
    // A little slack: the builder finishes the function in flight.
    EXPECT_LE(result.image.program.size(),
              static_cast<std::size_t>(spec.profile.maxCustomFns) +
                  8);
}

TEST(HttpdGen, ItsFunctionExistsInProgram)
{
    const auto result = generateHttpd(smallSpec());
    ASSERT_EQ(result.truth.itsFunctions.size(), 1u);
    EXPECT_NE(result.image.program.functionAt(
                  result.truth.itsFunctions[0]),
              nullptr);
    for (ir::Addr conf : result.truth.confounders)
        EXPECT_NE(result.image.program.functionAt(conf), nullptr);
}

TEST(HttpdGen, SinkSitesPointAtRealSinkCalls)
{
    const auto result = generateHttpd(smallSpec());
    ASSERT_FALSE(result.truth.sinkSites.empty());
    for (const auto &site : result.truth.sinkSites) {
        const ir::Function *fn =
            result.image.program.functionContaining(site.addr);
        ASSERT_NE(fn, nullptr) << support::hex(site.addr);
        bool found = false;
        for (const auto &block : fn->blocks) {
            for (std::size_t i = 0; i < block.stmts.size(); ++i) {
                if (block.stmtAddr(i) != site.addr)
                    continue;
                const ir::Stmt &stmt = block.stmts[i];
                ASSERT_EQ(stmt.kind, ir::StmtKind::Call);
                const bin::Import *imp =
                    result.image.importAt(stmt.target);
                ASSERT_NE(imp, nullptr);
                EXPECT_EQ(imp->name, site.sinkName);
                EXPECT_NE(taint::sinkByName(imp->name), nullptr);
                found = true;
            }
        }
        EXPECT_TRUE(found) << support::hex(site.addr);
    }
}

TEST(HttpdGen, StructOffsetDesignHasNoIts)
{
    auto spec = smallSpec();
    spec.failure = SampleSpec::FailureMode::StructOffset;
    const auto result = generateHttpd(spec);
    EXPECT_FALSE(result.truth.hasIts);
    EXPECT_TRUE(result.truth.itsFunctions.empty());
    EXPECT_FALSE(result.truth.sinkSites.empty()); // bugs still exist
}

TEST(HttpdGen, BugCountMatchesRealBugSites)
{
    const auto result = generateHttpd(smallSpec());
    std::size_t bugs = 0;
    std::set<ir::Addr> bugSites;
    for (const auto &site : result.truth.sinkSites) {
        if (site.isBug()) {
            ++bugs;
            bugSites.insert(site.addr);
        }
    }
    EXPECT_EQ(result.truth.bugCount(), bugs);
    EXPECT_EQ(bugSites.size(), bugs); // one bug per site address
}

TEST(HttpdGen, SystemDataSitesUseSystemKeys)
{
    // Every SystemData site must be the kind the string filter can
    // remove: the generator only indexes them by system keys, which
    // the taint layer's list must contain.
    for (const auto &key : systemConfigKeys())
        EXPECT_TRUE(taint::isSystemDataKey(key)) << key;
}

TEST(FirmwareGen, RoundTripsThroughUnpackAndSelect)
{
    const auto fw = generateFirmware(smallSpec());
    auto unpacked = fw::unpackFirmware(fw.bytes);
    ASSERT_TRUE(unpacked) << unpacked.errorMessage();
    auto target =
        fw::selectAnalysisTarget(unpacked.value().filesystem);
    ASSERT_TRUE(target) << target.errorMessage();
    EXPECT_EQ(target.value().libraries.size(), 1u);
    EXPECT_EQ(target.value().libraries[0]->name, "libc.so");
    EXPECT_TRUE(target.value().missingLibraries.empty());
    // The selected binary is the generated network binary, not the
    // busybox filler.
    EXPECT_NE(target.value().main->importByName("recv"), nullptr);
}

TEST(FirmwareGen, FailureModesFailAtTheRightStage)
{
    using FM = SampleSpec::FailureMode;
    {
        auto spec = smallSpec();
        spec.failure = FM::OpaqueEncoding;
        spec.profile.encoding = fw::Encoding::Opaque;
        const auto fw = generateFirmware(spec);
        EXPECT_FALSE(fw::unpackFirmware(fw.bytes));
    }
    {
        auto spec = smallSpec();
        spec.failure = FM::CorruptImage;
        const auto fw = generateFirmware(spec);
        EXPECT_FALSE(fw::unpackFirmware(fw.bytes));
    }
    {
        auto spec = smallSpec();
        spec.failure = FM::NoNetworkBinary;
        const auto fw = generateFirmware(spec);
        auto unpacked = fw::unpackFirmware(fw.bytes);
        ASSERT_TRUE(unpacked);
        EXPECT_FALSE(fw::selectAnalysisTarget(
            unpacked.value().filesystem));
    }
}

TEST(Dataset, ComposedLikeThePaper)
{
    const auto dataset = standardDataset();
    ASSERT_EQ(dataset.size(), 59u);

    std::map<std::string, int> perVendor;
    int latest = 0, preprocessingFailures = 0, structOffset = 0;
    for (const auto &spec : dataset) {
        ++perVendor[spec.profile.vendor];
        if (spec.latest)
            ++latest;
        using FM = SampleSpec::FailureMode;
        if (spec.failure == FM::OpaqueEncoding ||
            spec.failure == FM::CorruptImage ||
            spec.failure == FM::NoNetworkBinary) {
            ++preprocessingFailures;
        }
        if (spec.failure == FM::StructOffset)
            ++structOffset;
    }
    EXPECT_EQ(perVendor["NETGEAR"], 19);
    EXPECT_EQ(perVendor["D-Link"], 12);
    EXPECT_EQ(perVendor["TP-Link"], 18);
    EXPECT_EQ(perVendor["Tenda"], 9);
    EXPECT_EQ(perVendor["Cisco"], 1);
    EXPECT_EQ(latest, 10);
    EXPECT_EQ(preprocessingFailures, 4); // §4.2: four samples
    EXPECT_EQ(structOffset, 2);          // §4.2: two samples
}

TEST(Dataset, SeedsAreUnique)
{
    std::set<std::uint64_t> seeds;
    for (const auto &spec : standardDataset())
        seeds.insert(spec.seed);
    EXPECT_EQ(seeds.size(), 59u);
}

TEST(Profiles, VendorsDistinct)
{
    EXPECT_EQ(netgearProfile().vendor, "NETGEAR");
    EXPECT_EQ(dlinkProfile().vendor, "D-Link");
    EXPECT_EQ(tplinkProfile().vendor, "TP-Link");
    EXPECT_EQ(tendaProfile().vendor, "Tenda");
    EXPECT_EQ(ciscoProfile().vendor, "Cisco");
    EXPECT_NE(netgearProfile().minCustomFns,
              tplinkProfile().minCustomFns);
}

TEST(Manifest, SiteLookups)
{
    GroundTruth truth;
    truth.sinkSites.push_back(
        {0x100, SiteClass::RealBug, FlowKind::DirectGlobal,
         "strcpy"});
    truth.sinkSites.push_back(
        {0x200, SiteClass::DeadGuard, FlowKind::DirectGlobal,
         "sprintf"});
    EXPECT_EQ(truth.bugCount(), 1u);
    ASSERT_NE(truth.siteAt(0x100), nullptr);
    EXPECT_TRUE(truth.siteAt(0x100)->isBug());
    ASSERT_NE(truth.siteAt(0x200), nullptr);
    EXPECT_FALSE(truth.siteAt(0x200)->isBug());
    EXPECT_EQ(truth.siteAt(0x300), nullptr);
}

} // namespace
} // namespace fits::synth
