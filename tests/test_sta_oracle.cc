/** @file Oracle test of the STA engine: its dependency-driven
 * fixpoint, which records alerts on every visit, must produce the
 * same full report as the reference engine in reference_sta.cc (which
 * re-queues every function on any change and collects alerts in one
 * sweep after the fixpoint) for the CTS and CTS+ITS source sets on
 * every analyzable sample of the corpus under seeds 0, 1 and 7, in
 * fewer steps. A run cut by its deadline sweeps as the reference
 * does. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/pipeline.hh"
#include "corpus_seeds.hh"
#include "eval/corpus_runner.hh"
#include "eval/harness.hh"
#include "reference_sta.hh"
#include "taint/sta.hh"

namespace fits {
namespace {

/** The first difference between two reports, or an empty string. */
std::string
compareReports(const taint::TaintReport &actual,
               const taint::TaintReport &oracle)
{
    if (actual.budgetExhausted != oracle.budgetExhausted ||
        actual.deadlineExpired != oracle.deadlineExpired) {
        return "budget flags";
    }
    if (actual.labels.size() != oracle.labels.size())
        return "label count";
    for (std::size_t i = 0; i < oracle.labels.size(); ++i) {
        const auto &a = actual.labels[i];
        const auto &b = oracle.labels[i];
        if (a.sourceIndex != b.sourceIndex || a.systemData != b.systemData ||
            a.description != b.description) {
            return "label " + std::to_string(i);
        }
    }
    if (actual.alerts.size() != oracle.alerts.size())
        return "alert count " + std::to_string(actual.alerts.size()) +
               " vs " + std::to_string(oracle.alerts.size());
    for (std::size_t i = 0; i < oracle.alerts.size(); ++i) {
        const auto &a = actual.alerts[i];
        const auto &b = oracle.alerts[i];
        if (a.sinkSite != b.sinkSite || a.sinkName != b.sinkName ||
            a.vclass != b.vclass || a.labelMask != b.labelMask ||
            a.hasUserDataLabel != b.hasUserDataLabel ||
            a.inFunction != b.inFunction || a.imageIndex != b.imageIndex) {
            std::ostringstream os;
            os << "alert " << i << " at 0x" << std::hex << b.sinkSite;
            return os.str();
        }
    }
    return {};
}

struct Checked
{
    bool analyzed = false;
    std::size_t alerts = 0;
    std::string mismatch;
};

void
checkCorpus(std::uint64_t seed)
{
    const auto specs = test_support::seededSpecs(seed);
    const core::FitsPipeline pipeline;
    const taint::StaEngine sta;
    const auto checked = eval::CorpusRunner().map<Checked>(
        specs.size(),
        [&](std::size_t i) {
            Checked out;
            const auto fw = synth::generateFirmware(specs[i]);
            const auto artifact = pipeline.analyze(fw.bytes);
            if (!artifact.hasAnalysis())
                return out;
            out.analyzed = true;
            const auto cts = taint::classicalTaintSources();
            const auto ctsPlusIts = [&] {
                auto sources = cts;
                for (const auto &its : eval::verifiedItsSources(
                         artifact.inference.ranking, fw.truth)) {
                    sources.push_back(its);
                }
                return sources;
            }();
            for (const auto *sources : {&cts, &ctsPlusIts}) {
                const auto &pa = *artifact.analysis;
                const auto actual = sta.run(pa, *sources);
                const auto oracle = reference::runSta(pa, *sources);
                std::string diff = compareReports(actual, oracle);
                if (diff.empty() && actual.steps >= oracle.steps)
                    diff = "no fewer steps than the reference";
                if (!diff.empty()) {
                    out.mismatch = specs[i].name +
                                   (sources == &cts ? " cts: "
                                                    : " cts+its: ") +
                                   diff;
                    return out;
                }
                out.alerts += actual.alerts.size();
            }
            return out;
        },
        [&](std::size_t i, const std::string &error) {
            Checked out;
            out.mismatch = specs[i].name + ": " + error;
            return out;
        });

    std::size_t analyzed = 0, alerts = 0;
    for (const auto &c : checked) {
        analyzed += c.analyzed;
        alerts += c.alerts;
        EXPECT_TRUE(c.mismatch.empty())
            << "seed " << seed << ": " << c.mismatch;
    }
    // 55 of the 59 samples select a binary.
    EXPECT_GT(analyzed, 50u) << "seed " << seed;
    EXPECT_GT(alerts, 0u) << "seed " << seed;
}

TEST(StaOracle, MatchesReferenceOnCorpusSeed0)
{
    checkCorpus(0);
}

TEST(StaOracle, MatchesReferenceOnCorpusSeed1)
{
    checkCorpus(1);
}

TEST(StaOracle, MatchesReferenceOnCorpusSeed7)
{
    checkCorpus(7);
}

TEST(StaOracle, DeadlineCutRunSweepsLikeReference)
{
    // A deadline that has passed before the first visit leaves no
    // fixpoint at all: both engines run only their collection sweep,
    // from the empty state, and must report the same partial alerts.
    // (TaintFixture.StaDeadlineCutRunStillSweeps shows such a sweep
    // finding an alert.)
    taint::StaEngine::Config config;
    config.deadlineMs = 1e-9;
    const taint::StaEngine cutEngine(config);
    const auto sources = taint::classicalTaintSources();
    const auto specs = synth::standardDataset();
    std::size_t analyzed = 0;
    for (std::size_t i = 0; i < 12; ++i) {
        const auto fw = synth::generateFirmware(specs[i]);
        const auto artifact = core::FitsPipeline().analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        const auto &pa = *artifact.analysis;
        const auto cut = cutEngine.run(pa, sources);
        const auto oracle = reference::runSta(pa, sources, 1e-9);
        EXPECT_TRUE(cut.deadlineExpired) << specs[i].name;
        EXPECT_EQ(compareReports(cut, oracle), "") << specs[i].name;
        EXPECT_EQ(cut.steps, oracle.steps) << specs[i].name;
        EXPECT_GT(cut.steps, 0u) << specs[i].name;
        ++analyzed;

        // The uncut run reaches the fixpoint, which can only add
        // alerts.
        const auto full = taint::StaEngine().run(pa, sources);
        EXPECT_FALSE(full.deadlineExpired);
        EXPECT_GE(full.alerts.size(), cut.alerts.size()) << specs[i].name;
    }
    EXPECT_GT(analyzed, 5u);
}

} // namespace
} // namespace fits
