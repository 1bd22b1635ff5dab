/** @file Golden corpus digest: every answer the pipeline and the four
 * Table-5 engine runs give on the standard 59-sample dataset, pinned
 * bit-for-bit against tests/golden/corpus.digest.
 *
 * One line per sample: name; `ok` or failure stage + error code;
 * function, cluster and candidate counts; the top-10 ranking as
 * entry:score-bits; and for Karonte, Karonte+ITS, STA and STA+ITS the
 * raw alert count plus an FNV-1a hash over the sorted alert tuples.
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

#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/harness.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits {
namespace {

using FailureStage = core::PipelineArtifact::FailureStage;

const char *
failureStageName(FailureStage stage)
{
    switch (stage) {
      case FailureStage::None:      return "none";
      case FailureStage::Unpack:    return "unpack";
      case FailureStage::Select:    return "select";
      case FailureStage::Inference: return "inference";
    }
    return "?";
}

/** 64-bit FNV-1a, fed field by field. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            const unsigned char b =
                static_cast<unsigned char>(v >> (8 * i));
            bytes(&b, 1);
        }
    }
};

/** "count/hash" over the sorted (image, site, sink, mask, fn) tuples. */
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
    Fnv1a fnv;
    for (const auto &[image, site, sink, mask, fn] : tuples) {
        fnv.u64(image);
        fnv.u64(site);
        fnv.bytes(sink.data(), sink.size());
        fnv.bytes("", 1);
        fnv.u64(mask);
        fnv.u64(fn);
    }
    return std::to_string(alerts.size()) + "/" + support::hex(fnv.h);
}

/** The digest line of one sample. */
std::string
digestLine(const synth::GeneratedFirmware &fw)
{
    core::PipelineConfig config;
    config.budgets.behaviorMs = 0.0;
    config.budgets.taintMs = 0.0;
    const auto artifact = core::FitsPipeline(config).analyze(fw.bytes);

    std::ostringstream line;
    line << fw.spec.name << ' ';
    if (artifact.ok) {
        line << "ok";
    } else {
        line << failureStageName(artifact.failureStage) << '/'
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
    if (!artifact.hasAnalysis())
        return line.str();

    // The sources of eval::taintOutcome.
    const auto cts = taint::classicalTaintSources();
    auto ctsPlusIts = cts;
    const auto its = eval::verifiedItsSources(ranking, fw.truth);
    ctsPlusIts.insert(ctsPlusIts.end(), its.begin(), its.end());
    const auto &pa = *artifact.analysis;
    const taint::KaronteEngine karonte;
    const taint::StaEngine sta;
    line << " karonte=" << alertDigest(karonte.run(pa, cts).alerts)
         << " karonte+its="
         << alertDigest(karonte.run(pa, ctsPlusIts).alerts)
         << " sta=" << alertDigest(sta.run(pa, cts).alerts)
         << " sta+its=" << alertDigest(sta.run(pa, ctsPlusIts).alerts);
    return line.str();
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
    const auto actual = runner.map<std::string>(
        specs.size(),
        [&](std::size_t i) {
            return digestLine(synth::generateFirmware(specs[i]));
        },
        [&](std::size_t i, const std::string &error) {
            return specs[i].name + " exception " + error;
        });

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
        firstDiff < specs.size() ? specs[firstDiff].name
                                 : std::string("<line count>");
    FAIL() << "golden corpus digest differs first at sample " << where
           << " (line " << firstDiff + 1 << ")\n  expected: "
           << (firstDiff < expected.size() ? expected[firstDiff]
                                           : "<none>")
           << "\n  actual:   "
           << (firstDiff < actual.size() ? actual[firstDiff] : "<none>")
           << "\nactual digest written to " << FITS_GOLDEN_ACTUAL;
}

} // namespace
} // namespace fits
