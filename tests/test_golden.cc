/** @file Golden corpus digest: every answer the pipeline and the four
 * Table-5 engine runs give on the standard 59-sample dataset, pinned
 * bit-for-bit against tests/golden/corpus.digest.
 *
 * One line per sample: name; `ok` or the failure's stage + error code;
 * function, cluster and candidate counts; the top-10 ranking as
 * entry:score-bits; and for Karonte, Karonte+ITS, STA and STA+ITS the
 * raw alert count plus an FNV-1a hash over the sorted alert tuples.
 * After the samples, one `table3` line per vendor (in first-sample
 * order) and one for the whole corpus pin the Table-3 top-1/2/3 counts
 * that `fits corpus` prints as percentages. Last, one `codec` line per
 * sample that reached analysis pins the FBIN and behavior-bundle
 * codecs byte for byte: an FNV-1a hash of writeBinary() over the
 * selected main binary and one of encodeBehaviorBundle() over the
 * artifact's behavior product.
 *
 * On a mismatch the test writes the digest it computed to
 * <build>/tests/corpus.digest and names the first differing sample.
 * A deliberate answer change updates the committed file by copying
 * that one over it (with the reason recorded in CHANGES.md). */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "binary/bytebuf.hh"
#include "binary/fbin.hh"
#include "core/behavior_io.hh"
#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/harness.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

/** "count/hash": FNV-1a over the sorted (image, site, sink, mask, fn)
 * tuples, little-endian u64s around the NUL-terminated sink name. */
std::string
alertDigest(const std::vector<taint::Alert> &alerts)
{
    using Tuple = std::tuple<std::uint64_t, std::uint64_t, std::string,
                             std::uint64_t, std::uint64_t>;
    std::vector<Tuple> tuples;
    for (const auto &a : alerts) {
        tuples.emplace_back(a.imageIndex, a.sinkSite, a.sinkName,
                            a.labelMask, a.inFunction);
    }
    std::sort(tuples.begin(), tuples.end());
    bin::StringByteWriter w;
    for (const auto &[image, site, sink, mask, fn] : tuples) {
        w.u64(image);
        w.u64(site);
        w.raw({sink.begin(), sink.end()});
        w.u8(0);
        w.u64(mask);
        w.u64(fn);
    }
    return std::to_string(alerts.size()) + "/" +
           support::hex(support::fnv1a(w.take()));
}

struct SampleDigest
{
    std::string line;
    /** 1-based rank of the first true ITS; -1 if absent or failed. */
    int firstItsRank = -1;
    /** The `codec` line; empty when the sample never reached analysis. */
    std::string codec;
};

/** "codec <sample> fbin=<hash> bundle=<hash>" over the bytes the FBIN
 * writer and the behavior-bundle encoder produce for `artifact`. */
std::string
codecLine(const std::string &name, const core::PipelineArtifact &artifact)
{
    const auto fbin = bin::writeBinary(*artifact.target->main);
    core::BehaviorBundle bundle;
    bundle.imageInfo = artifact.imageInfo;
    bundle.binaryName = artifact.binaryName;
    bundle.numFunctions = artifact.numFunctions;
    bundle.binaryBytes = artifact.binaryBytes;
    bundle.behavior = artifact.behavior;
    return "codec " + name + " fbin=" +
           support::hex(support::fnv1a(fbin.data(), fbin.size())) +
           " bundle=" +
           support::hex(support::fnv1a(core::encodeBehaviorBundle(bundle)));
}

/** The digest line of one sample. */
SampleDigest
digestSample(const synth::GeneratedFirmware &fw)
{
    core::PipelineConfig config;
    config.budgets.behaviorMs = 0.0;
    const auto artifact = core::FitsPipeline(config).analyze(fw.bytes);

    std::ostringstream line;
    line << fw.spec.name << ' ';
    if (artifact.ok()) {
        line << "ok";
    } else {
        line << support::stageName(artifact.status.stage()) << '/'
             << support::errorCodeName(artifact.status.code());
    }
    line << " fns=" << artifact.numFunctions
         << " clusters=" << artifact.inference.numClusters
         << " candidates=" << artifact.inference.numCandidates
         << " top=";
    const auto &ranking = artifact.inference.ranking;
    for (std::size_t i = 0; i < ranking.size() && i < 10; ++i) {
        line << (i == 0 ? "" : ",") << support::hex(ranking[i].entry)
             << ':'
             << support::hex(std::bit_cast<std::uint64_t>(
                    ranking[i].score));
    }
    const int firstItsRank =
        artifact.ok() ? eval::rankOfFirstIts(ranking, fw.truth) : -1;
    if (!artifact.hasAnalysis())
        return {line.str(), firstItsRank, {}};

    // The Table 5 runs, raw alerts (before the system-data filter).
    const auto its = eval::verifiedItsSources(ranking, fw.truth);
    for (const auto &run : eval::kTaintRuns) {
        line << ' ' << run.key << '='
             << alertDigest(
                    eval::runEngine(run, *artifact.analysis, its).alerts);
    }
    return {line.str(), firstItsRank, codecLine(fw.spec.name, artifact)};
}

/** "table3 <vendor> fw=N top1=A top2=B top3=C" */
std::string
table3Line(const std::string &vendor, const eval::PrecisionStats &stats)
{
    return "table3 " + vendor + " fw=" + std::to_string(stats.total) +
           " top1=" + std::to_string(stats.top1) +
           " top2=" + std::to_string(stats.top2) +
           " top3=" + std::to_string(stats.top3);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

TEST(GoldenCorpus, MatchesCommittedDigest)
{
    const auto specs = synth::standardDataset();
    const eval::CorpusRunner runner;
    const auto samples = runner.map<SampleDigest>(
        specs.size(),
        [&](std::size_t i) {
            return digestSample(synth::generateFirmware(specs[i]));
        },
        [&](std::size_t i, const std::string &error) {
            return SampleDigest{specs[i].name + " exception " + error, -1,
                                {}};
        });

    std::vector<std::string> actual;
    std::vector<std::string> vendors;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        actual.push_back(samples[i].line);
        const std::string &vendor = specs[i].profile.vendor;
        if (std::find(vendors.begin(), vendors.end(), vendor) ==
            vendors.end())
            vendors.push_back(vendor);
    }
    eval::PrecisionStats overall;
    for (const auto &vendor : vendors) {
        eval::PrecisionStats stats;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (specs[i].profile.vendor == vendor)
                stats.addRank(samples[i].firstItsRank);
        }
        actual.push_back(table3Line(vendor, stats));
        overall += stats;
    }
    actual.push_back(table3Line("Overall", overall));
    const std::size_t codecStart = actual.size();
    for (const auto &sample : samples) {
        if (!sample.codec.empty())
            actual.push_back(sample.codec);
    }

    const auto expected = readLines(FITS_GOLDEN_DIGEST);
    std::size_t firstDiff = 0;
    while (firstDiff < actual.size() && firstDiff < expected.size() &&
           actual[firstDiff] == expected[firstDiff]) {
        ++firstDiff;
    }
    if (firstDiff == actual.size() && firstDiff == expected.size())
        return;

    {
        std::ofstream out(FITS_GOLDEN_ACTUAL);
        for (const auto &line : actual)
            out << line << '\n';
    }
    const std::string where =
        firstDiff < specs.size()  ? "sample " + specs[firstDiff].name
        : firstDiff < codecStart ? std::string("the table3 lines")
                                 : std::string("the codec lines");
    FAIL() << "golden corpus digest differs first at " << where
           << " (line " << firstDiff + 1 << ")\n  expected: "
           << (firstDiff < expected.size() ? expected[firstDiff]
                                           : "<none>")
           << "\n  actual:   "
           << (firstDiff < actual.size() ? actual[firstDiff] : "<none>")
           << "\nactual digest written to " << FITS_GOLDEN_ACTUAL;
}

} // namespace
} // namespace fits
