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
    /** Ok when every stage passed; otherwise the typed failure, whose
     * stage names where the run stopped (unpack, filesystem, select,
     * infer, ...). */
    support::Status status;

    /** The run produced usable but partial output: a library failed to
     * lift, or a stage budget expired mid-analysis. `issues` lists the
     * typed reasons. A degraded run still has ok() == true. */
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
    /** Wall time of the whole analyze() call, cache lookup included:
     * a view over the "pipeline" obs span. */
    double analysisMs = 0.0;

    /** True when every stage passed (a degraded run included). */
    bool
    ok() const
    {
        return status.isOk();
    }

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
    /** Every stage of analyze() inside its "pipeline" span; returns
     * early at the first failing stage. */
    void runStages(const std::vector<std::uint8_t> &firmware,
                   PipelineArtifact &artifact) const;

    /** Stage 3 on an artifact whose `behavior` is populated; shared by
     * the full path and the behavior-cache hit path. */
    void runInferenceStage(PipelineArtifact &artifact) const;

    PipelineConfig config_;
};

} // namespace fits::core

#endif // FITS_CORE_PIPELINE_HH_
