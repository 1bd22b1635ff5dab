#ifndef FITS_CORE_PIPELINE_HH_
#define FITS_CORE_PIPELINE_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/behavior.hh"
#include "core/infer.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "support/deadline.hh"
#include "support/status.hh"

namespace fits::core {

/**
 * Per-stage wall-clock budgets in milliseconds; 0 = unlimited. The
 * default is taken from FITS_STAGE_TIMEOUT_MS (0 when unset), so an
 * operator can bound every stage of a corpus run with one knob. An
 * expired budget degrades the result (partial data, `degraded` set)
 * rather than failing it.
 */
struct StageBudgets
{
    /** Behavior stage: UCSE exploration + reaching definitions. */
    double behaviorMs = support::envStageTimeoutMs();
    /** Taint engines (consumed by the evaluation harness). */
    double taintMs = support::envStageTimeoutMs();
};

/** Configuration of the whole FITS pipeline. */
struct PipelineConfig
{
    BehaviorAnalyzer::Config behavior;
    InferConfig infer;
    StageBudgets budgets;

    /**
     * Consult the analysis cache's blob tier for whole-sample behavior
     * representations (keyed by firmware content hash + behavior-config
     * fingerprint): a warm hit skips unpack through BFV extraction and
     * goes straight to inference. Off by default because a cached
     * artifact carries no analysis chain — callers that need taint
     * analysis (or the artifact's linked/analysis members) must leave
     * this off. Rankings are bit-identical either way.
     */
    bool behaviorCache = false;
};

/**
 * Wall-clock time of each pipeline stage, in milliseconds. These are
 * plain-data views over the `fits::obs` span timers ("pipeline/…"):
 * the same measurement that lands in the metrics registry is copied
 * here so per-sample results stay self-contained.
 */
struct StageTimings
{
    double unpackMs = 0.0;
    double selectMs = 0.0;
    double behaviorMs = 0.0; ///< lift + UCSE + BFV extraction
    double inferMs = 0.0;    ///< clustering + ranking

    /** Sub-stages of behaviorMs ("pipeline/lift|ucse|bfv" spans). */
    double liftMs = 0.0;
    double ucseMs = 0.0;
    double bfvMs = 0.0;

    /** Sub-stages of inferMs ("pipeline/infer/cluster|rank" spans). */
    double clusterMs = 0.0;
    double rankMs = 0.0;

    double
    totalMs() const
    {
        return unpackMs + selectMs + behaviorMs + inferMs;
    }
};

/**
 * Everything one pipeline pass over a firmware image computes: the
 * outcome, the selected target, the whole-program analysis, the
 * behavior representations, and the ranking. Taint engines,
 * re-ranking experiments, and combined inference+taint evaluation all
 * consume the same artifact, so a sample is unpacked, selected, and
 * analyzed exactly once.
 *
 * The target/linked/analysis chain borrows downward (ProgramAnalysis
 * borrows LinkedProgram borrows AnalysisTarget); each link is
 * heap-allocated so the artifact can be moved without invalidating the
 * chain. Move-only.
 */
struct PipelineArtifact
{
    enum class FailureStage : std::uint8_t {
        None,
        Unpack,    ///< image did not unpack (magic / crypto / corrupt)
        Select,    ///< no network binary found
        Inference, ///< no anchors or no custom functions
    };

    bool ok = false;
    FailureStage failureStage = FailureStage::None;
    std::string error;
    /** Typed form of `error` (stage + code); Ok when the run passed. */
    support::Status status;

    /** The run produced usable but partial output: a library failed to
     * lift, or a stage budget expired mid-analysis. `issues` lists the
     * typed reasons. A degraded run still has ok == true. */
    bool degraded = false;
    std::vector<support::Status> issues;

    fw::ImageInfo imageInfo;
    std::string binaryName;
    std::size_t numFunctions = 0;
    std::size_t binaryBytes = 0;

    /** The selected binary and its libraries, their linked view, and
     * the whole-program analysis. Null when stage 1 failed or when the
     * behavior cache answered (see PipelineConfig::behaviorCache). */
    std::unique_ptr<fw::AnalysisTarget> target;
    std::unique_ptr<analysis::LinkedProgram> linked;
    std::unique_ptr<analysis::ProgramAnalysis> analysis;

    BehaviorRepr behavior;
    InferenceResult inference;
    StageTimings timings;

    /** True once stage 1 succeeded (analysis chain is populated). */
    bool
    hasAnalysis() const
    {
        return analysis != nullptr;
    }
};

/**
 * The FITS pipeline of Figure 3: unpack the firmware, select the
 * network binary and its libraries, compute behavior representations,
 * and rank custom functions as ITS candidates.
 */
class FitsPipeline
{
  public:
    explicit FitsPipeline(PipelineConfig config = {});

    /** Run every stage on raw firmware image bytes. */
    PipelineArtifact analyze(
        const std::vector<std::uint8_t> &firmware) const;

  private:
    /** Stage 3 on an artifact whose `behavior` is populated; shared by
     * the full path and the behavior-cache hit path. */
    void runInferenceStage(PipelineArtifact &artifact) const;

    PipelineConfig config_;
};

} // namespace fits::core

#endif // FITS_CORE_PIPELINE_HH_
