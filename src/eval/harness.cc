#include "harness.hh"

#include <algorithm>
#include <set>

#include "support/strings.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits::eval {

namespace {

/** The four Table 5 runs on the artifact's analysis, into
 * outcome.taint. ITS runs apply the §4.3 system-data filter. A report
 * cut short by the wall-clock budget is still scored — its alerts are
 * valid, just not a full sweep — and degrades the outcome so aggregate
 * tables can exclude or annotate it. */
void
runTaint(const core::PipelineArtifact &artifact, double taintBudgetMs,
         SampleOutcome &outcome)
{
    const analysis::ProgramAnalysis &pa = *artifact.analysis;
    const auto cts = taint::classicalTaintSources();
    auto ctsPlusIts = cts;
    const auto itsSources =
        verifiedItsSources(artifact.inference.ranking, outcome.truth);
    ctsPlusIts.insert(ctsPlusIts.end(), itsSources.begin(),
                      itsSources.end());

    taint::KaronteEngine::Config karonteConfig;
    karonteConfig.deadlineMs = taintBudgetMs;
    taint::StaEngine::Config staConfig;
    staConfig.deadlineMs = taintBudgetMs;
    const taint::KaronteEngine karonte(karonteConfig);
    const taint::StaEngine sta(staConfig);

    TaintOutcome &runs = outcome.taint.emplace();
    const auto score = [&](const taint::TaintReport &report, bool its,
                           const char *engine, EngineStats &stats,
                           std::vector<ir::Addr> &bugs) {
        if (report.deadlineExpired) {
            outcome.degraded = true;
            outcome.issues.push_back(support::Status::error(
                support::Stage::Taint, support::ErrorCode::Timeout,
                std::string(engine) + " stopped at the stage deadline"));
        }
        stats = scoreReport(its ? report.filteredAlerts() : report.alerts,
                            outcome.truth, report.analysisMs, &bugs);
    };
    score(karonte.run(pa, cts), false, "karonte", runs.karonte,
          runs.karonteBugs);
    score(karonte.run(pa, ctsPlusIts), true, "karonte+its",
          runs.karonteIts, runs.karonteItsBugs);
    score(sta.run(pa, cts), false, "sta", runs.sta, runs.staBugs);
    score(sta.run(pa, ctsPlusIts), true, "sta+its", runs.staIts,
          runs.staItsBugs);
}

} // namespace

SampleOutcome
sampleOutcome(core::PipelineArtifact artifact,
              const synth::SampleSpec &spec, synth::GroundTruth truth,
              bool taint, double taintBudgetMs)
{
    SampleOutcome outcome;
    outcome.spec = spec;
    outcome.truth = std::move(truth);
    outcome.status = artifact.status;
    outcome.degraded = artifact.degraded;
    outcome.issues = std::move(artifact.issues);
    outcome.binaryName = std::move(artifact.binaryName);
    outcome.numFunctions = artifact.numFunctions;
    outcome.binaryBytes = artifact.binaryBytes;
    outcome.analysisMs = artifact.analysisMs;

    // Stage-1 failures have nothing to run the engines on. An
    // inference-stage failure still does: the engines run with the
    // classical sources alone (the ranking is simply empty).
    if (taint && artifact.hasAnalysis())
        runTaint(artifact, taintBudgetMs, outcome);

    if (artifact.ok()) {
        outcome.ranking = std::move(artifact.inference.ranking);
        outcome.behavior = std::move(artifact.behavior);
        outcome.firstItsRank =
            rankOfFirstIts(outcome.ranking, outcome.truth);
    }
    return outcome;
}

int
rankOfFirstIts(const std::vector<core::RankedFunction> &ranking,
               const synth::GroundTruth &truth)
{
    for (std::size_t i = 0; i < ranking.size(); ++i) {
        if (std::find(truth.itsFunctions.begin(),
                      truth.itsFunctions.end(),
                      ranking[i].entry) != truth.itsFunctions.end()) {
            return static_cast<int>(i) + 1;
        }
    }
    return -1;
}

PrecisionStats
rerank(const std::vector<SampleOutcome> &outcomes,
       const core::InferConfig &config)
{
    PrecisionStats stats;
    for (const auto &outcome : outcomes) {
        stats.addRank(
            outcome.ok()
                ? rankOfFirstIts(
                      core::inferIts(outcome.behavior, config).ranking,
                      outcome.truth)
                : -1);
    }
    return stats;
}

void
PrecisionStats::addRank(int rank)
{
    ++total;
    if (rank == 1)
        ++top1;
    if (rank >= 1 && rank <= 2)
        ++top2;
    if (rank >= 1 && rank <= 3)
        ++top3;
}

namespace {

double
ratio(int hits, int total)
{
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
}

} // namespace

double
PrecisionStats::p1() const
{
    return ratio(top1, total);
}

double
PrecisionStats::p2() const
{
    return ratio(top2, total);
}

double
PrecisionStats::p3() const
{
    return ratio(top3, total);
}

EngineStats &
EngineStats::operator+=(const EngineStats &other)
{
    alerts += other.alerts;
    bugs += other.bugs;
    ms += other.ms;
    return *this;
}

EngineStats
scoreReport(const std::vector<taint::Alert> &alerts,
            const synth::GroundTruth &truth, double ms,
            std::vector<ir::Addr> *bugSites)
{
    EngineStats stats;
    stats.ms = ms;
    stats.alerts = alerts.size();
    std::set<ir::Addr> bugs;
    for (const auto &alert : alerts) {
        const synth::SinkSite *site = truth.siteAt(alert.sinkSite);
        if (site != nullptr && site->isBug())
            bugs.insert(alert.sinkSite);
    }
    stats.bugs = bugs.size();
    if (bugSites != nullptr)
        bugSites->assign(bugs.begin(), bugs.end());
    return stats;
}

std::vector<taint::TaintSource>
verifiedItsSources(const std::vector<core::RankedFunction> &ranking,
                   const synth::GroundTruth &truth)
{
    std::vector<taint::TaintSource> sources;
    for (std::size_t i = 0; i < ranking.size() && i < 3; ++i) {
        const ir::Addr entry = ranking[i].entry;
        if (std::find(truth.itsFunctions.begin(),
                      truth.itsFunctions.end(),
                      entry) != truth.itsFunctions.end()) {
            sources.push_back(
                taint::TaintSource::its(entry, support::hex(entry)));
        }
    }
    return sources;
}

} // namespace fits::eval
