#ifndef FITS_EVAL_HARNESS_HH_
#define FITS_EVAL_HARNESS_HH_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "synth/firmware_gen.hh"
#include "taint/common.hh"

namespace fits::eval {

/** Top-n success counters ("at least one true ITS in the top n"). */
struct PrecisionStats
{
    int top1 = 0;
    int top2 = 0;
    int top3 = 0;
    int total = 0;

    void addRank(int rank); ///< rank is 1-based; <= 0 means miss
    double p1() const;
    double p2() const;
    double p3() const;

    PrecisionStats &
    operator+=(const PrecisionStats &other)
    {
        top1 += other.top1;
        top2 += other.top2;
        top3 += other.top3;
        total += other.total;
        return *this;
    }
};

/** Aggregate outcome of one taint-engine run against ground truth. */
struct EngineStats
{
    std::size_t alerts = 0;
    std::size_t bugs = 0; ///< distinct true-positive sink sites
    double ms = 0.0;

    double
    falsePositiveRate() const
    {
        return alerts == 0
                   ? 0.0
                   : static_cast<double>(alerts - bugs) /
                         static_cast<double>(alerts);
    }

    EngineStats &operator+=(const EngineStats &other);
};

/** The two taint engines Table 5 compares. */
enum class TaintEngine { Karonte, Sta };

/** One engine run of Table 5. With ITSs, the verified ITSs join the
 * CTSs and the run drops the §4.3 system-data flows from its alerts.
 * `title` heads its table column; `key` names it in degraded-sample
 * issues and in the golden digest. */
struct TaintRun
{
    TaintEngine engine;
    bool withIts;
    const char *title;
    const char *key;
};

/** Table 5's four runs, in the order each sample runs them. */
inline constexpr std::array<TaintRun, 4> kTaintRuns{{
    {TaintEngine::Karonte, false, "Karonte", "karonte"},
    {TaintEngine::Karonte, true, "Karonte-ITS", "karonte+its"},
    {TaintEngine::Sta, false, "STA", "sta"},
    {TaintEngine::Sta, true, "STA-ITS", "sta+its"},
}};

/** Position of the (engine, withIts) run in kTaintRuns. */
constexpr std::size_t
taintRunIndex(TaintEngine engine, bool withIts)
{
    std::size_t i = 0;
    while (kTaintRuns[i].engine != engine ||
           kTaintRuns[i].withIts != withIts)
        ++i;
    return i;
}

/** One run on one sample; `bugs` are its distinct true-positive sink
 * sites, sorted, for cross-run set relations. */
struct RunOutcome
{
    EngineStats stats;
    std::vector<ir::Addr> bugs;
};

/** The Table 5 runs on one sample, indexed like kTaintRuns. */
using TaintOutcome = std::array<RunOutcome, kTaintRuns.size()>;

/** Each run's stats summed over the samples that ran taint. */
struct TaintTotals
{
    std::size_t samples = 0;
    std::array<EngineStats, kTaintRuns.size()> runs;

    TaintTotals &operator+=(const TaintOutcome &outcome);
};

/**
 * Everything the experiment tables need from one corpus sample: its
 * identity and ground truth, how its pipeline run ended, the ranking
 * and the rank of the first true ITS (the paper's top-n criterion),
 * the retained behavior representation (so ablations re-rank without
 * re-analyzing the binary), and, when asked for, the four Table-5
 * engine runs. A sample that failed — or whose worker threw — still
 * names its spec.
 */
struct SampleOutcome
{
    synth::SampleSpec spec;
    synth::GroundTruth truth;
    /** Ok when the pipeline passed; else where and why it stopped. */
    support::Status status;

    /** Partial result: the pipeline artifact was degraded, or a taint
     * engine hit its wall-clock budget. `issues` lists the artifact's
     * reasons first, then one Timeout per engine run cut short. */
    bool degraded = false;
    std::vector<support::Status> issues;

    /** Empty unless the pipeline passed. */
    std::vector<core::RankedFunction> ranking;
    /** 1-based rank of the first verified ITS; -1 if absent. */
    int firstItsRank = -1;

    std::string binaryName;
    std::size_t numFunctions = 0;
    std::size_t binaryBytes = 0;
    /** core::PipelineArtifact::analysisMs. */
    double analysisMs = 0.0;

    /** Empty unless the pipeline passed. */
    core::BehaviorRepr behavior;
    /** Engaged when taint was requested and the sample reached
     * analysis (an inference-stage failure included). */
    std::optional<TaintOutcome> taint;

    bool
    ok() const
    {
        return status.isOk();
    }
};

/**
 * Score one pipeline artifact as a SampleOutcome; the ranking and the
 * behavior representation move out of `artifact`. With `taint`, the
 * kTaintRuns also run on the artifact's whole-program analysis (no
 * unpack/select/behavior re-run), each under `taintBudgetMs` (0 =
 * unlimited). The engines still run when only the inference stage
 * failed, then with classical sources alone.
 */
SampleOutcome sampleOutcome(core::PipelineArtifact artifact,
                            const synth::SampleSpec &spec,
                            synth::GroundTruth truth, bool taint = false,
                            double taintBudgetMs = 0.0);

/** 1-based rank of the first true ITS in a ranking (-1 if none). */
int rankOfFirstIts(const std::vector<core::RankedFunction> &ranking,
                   const synth::GroundTruth &truth);

/**
 * Re-rank every analyzed sample's retained behavior under `config` and
 * count where its first true ITS lands; failed samples count as
 * misses. The ablation tables vary `config` over one corpus run.
 */
PrecisionStats rerank(const std::vector<SampleOutcome> &outcomes,
                      const core::InferConfig &config);

/**
 * The ITS sources of a taint run: the top-3 ranked functions that
 * ground truth confirms, in rank order (the paper's manual
 * verification step of §4.1).
 */
std::vector<taint::TaintSource>
verifiedItsSources(const std::vector<core::RankedFunction> &ranking,
                   const synth::GroundTruth &truth);

/** Run `run`'s engine on `pa` from the CTSs (plus `its` when the run
 * adds ITSs) under `deadlineMs` (0 = unlimited); the report is raw. */
taint::TaintReport runEngine(const TaintRun &run,
                             const analysis::ProgramAnalysis &pa,
                             const std::vector<taint::TaintSource> &its,
                             double deadlineMs = 0.0);

/** The alerts `run` reports: filtered when it adds ITSs. */
std::vector<taint::Alert> reportedAlerts(const TaintRun &run,
                                         const taint::TaintReport &report);

/** Score a taint report against ground truth. */
EngineStats scoreReport(const std::vector<taint::Alert> &alerts,
                        const synth::GroundTruth &truth, double ms,
                        std::vector<ir::Addr> *bugSites = nullptr);

} // namespace fits::eval

#endif // FITS_EVAL_HARNESS_HH_
