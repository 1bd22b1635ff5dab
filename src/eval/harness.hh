#ifndef FITS_EVAL_HARNESS_HH_
#define FITS_EVAL_HARNESS_HH_

#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "synth/firmware_gen.hh"
#include "taint/common.hh"

namespace fits::eval {

/**
 * Result of running the FITS inference pipeline on one corpus sample,
 * with everything the experiment tables need: the ranking, the rank of
 * the first true ITS (the paper's top-n criterion), per-stage timing,
 * and the retained behavior representation so ablation experiments can
 * re-rank without re-analyzing the binary.
 */
struct InferenceOutcome
{
    synth::SampleSpec spec;
    bool ok = false;
    std::string error;
    /** Typed form of `error`; Ok when the pipeline passed. */
    support::Status status;
    core::PipelineArtifact::FailureStage failureStage =
        core::PipelineArtifact::FailureStage::None;

    /** Partial result: see core::PipelineArtifact::degraded. */
    bool degraded = false;
    std::vector<support::Status> issues;

    std::vector<core::RankedFunction> ranking;
    /** 1-based rank of the first verified ITS; -1 if absent. */
    int firstItsRank = -1;

    std::string binaryName;
    std::size_t numFunctions = 0;
    std::size_t binaryBytes = 0;
    double analysisMs = 0.0;

    core::BehaviorRepr behavior;
    synth::GroundTruth truth;
};

/** Run the full pipeline on one generated sample. */
InferenceOutcome runInference(const synth::GeneratedFirmware &fw,
                              const core::PipelineConfig &config = {});

/**
 * Score an already-computed pipeline artifact as an InferenceOutcome.
 * Lets inference- and taint-side evaluation share one per-sample
 * analysis instead of re-running unpack/select/behavior per consumer.
 */
InferenceOutcome inferenceOutcome(const core::PipelineArtifact &artifact,
                                  const synth::SampleSpec &spec,
                                  const synth::GroundTruth &truth);

/** 1-based rank of the first true ITS in a ranking (-1 if none). */
int rankOfFirstIts(const std::vector<core::RankedFunction> &ranking,
                   const synth::GroundTruth &truth);

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

/** The four engine configurations of Table 5 on one sample. */
struct TaintOutcome
{
    /** Identity of the sample this outcome describes — populated on
     * success AND failure paths so an errored outcome still says
     * which sample it came from. */
    synth::SampleSpec spec;
    bool ok = false;
    std::string error;
    /** Typed form of `error`; Ok when the engines ran. */
    support::Status status;
    /** Partial result: the shared artifact was degraded or an engine
     * hit its wall-clock budget; `issues` lists the reasons. */
    bool degraded = false;
    std::vector<support::Status> issues;
    EngineStats karonte;
    EngineStats karonteIts;
    EngineStats sta;
    EngineStats staIts;
    /** Bug-site sets found, for cross-engine set relations. */
    std::vector<ir::Addr> karonteBugs;
    std::vector<ir::Addr> karonteItsBugs;
    std::vector<ir::Addr> staBugs;
    std::vector<ir::Addr> staItsBugs;
};

/**
 * The ITS sources of a taint run: the top-3 ranked functions that
 * ground truth confirms, in rank order (the paper's manual
 * verification step of §4.1).
 */
std::vector<taint::TaintSource>
verifiedItsSources(const std::vector<core::RankedFunction> &ranking,
                   const synth::GroundTruth &truth);

/**
 * The four Table 5 configurations on one analyzed sample: each engine
 * runs with CTS or CTS + verifiedItsSources, over the artifact's
 * whole-program analysis (no unpack/select/behavior re-run).
 * ITS-sourced runs apply the §4.3 system-data string filter. Engines
 * still execute when only the inference stage failed — they then run
 * with classical sources alone.
 */
TaintOutcome taintOutcome(const core::PipelineArtifact &artifact,
                          const synth::SampleSpec &spec,
                          const synth::GroundTruth &truth,
                          double taintBudgetMs = 0.0);

/** Score a taint report against ground truth. */
EngineStats scoreReport(const std::vector<taint::Alert> &alerts,
                        const synth::GroundTruth &truth, double ms,
                        std::vector<ir::Addr> *bugSites = nullptr);

} // namespace fits::eval

#endif // FITS_EVAL_HARNESS_HH_
