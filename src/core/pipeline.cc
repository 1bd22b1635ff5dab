#include "pipeline.hh"

#include "cache/cache.hh"
#include "core/behavior_io.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace fits::core {

namespace {

const char *
failureStageName(PipelineArtifact::FailureStage stage)
{
    switch (stage) {
      case PipelineArtifact::FailureStage::None:      return "none";
      case PipelineArtifact::FailureStage::Unpack:    return "unpack";
      case PipelineArtifact::FailureStage::Select:    return "select";
      case PipelineArtifact::FailureStage::Inference: return "inference";
    }
    return "?";
}

void
recordRunCounters(const PipelineArtifact &artifact)
{
    if (!obs::enabled())
        return;
    obs::addCounter("pipeline.runs");
    if (artifact.ok) {
        obs::addCounter("pipeline.ok");
        obs::addCounter("pipeline.functions",
                        artifact.numFunctions);
    } else {
        obs::addCounter(std::string("pipeline.failures.") +
                        failureStageName(artifact.failureStage));
    }
    if (artifact.degraded)
        obs::addCounter("pipeline.degraded");
    if (!artifact.status.isOk()) {
        obs::addCounter(std::string("pipeline.errors.") +
                        support::stageName(artifact.status.stage()));
    }
    for (const auto &issue : artifact.issues) {
        obs::addCounter(std::string("pipeline.errors.") +
                        support::stageName(issue.stage()));
    }
}

} // namespace

FitsPipeline::FitsPipeline(PipelineConfig config)
    : config_(std::move(config))
{
}

PipelineArtifact
FitsPipeline::analyze(const std::vector<std::uint8_t> &firmware) const
{
    obs::ScopedTimer pipelineSpan("pipeline");
    PipelineArtifact artifact;

    // Behavior-cache fast path: the whole-sample behavior product is
    // keyed by (firmware content hash, behavior-config fingerprint).
    // An active stage budget disqualifies the sample — budget-bound
    // results are timing-dependent and must be neither served nor
    // stored. A hit replays stage 3 on the decoded representation; any
    // decode defect silently falls through to the full pipeline.
    const bool cacheable = config_.behaviorCache &&
                           config_.budgets.behaviorMs <= 0.0 &&
                           !config_.behavior.ucse.deadline.active() &&
                           (cache::memoryUsable() ||
                            cache::diskUsable());
    std::uint64_t cacheKey1 = 0;
    std::uint64_t cacheKey2 = 0;
    if (cacheable) {
        cacheKey1 = support::fnv1a(firmware.data(), firmware.size());
        cacheKey2 = behaviorConfigFingerprint(config_.behavior);
        const auto payload =
            cache::fetchBlob("behavior", cacheKey1, cacheKey2);
        if (payload.has_value()) {
            auto bundle = decodeBehaviorBundle(*payload);
            if (bundle.has_value()) {
                artifact.imageInfo = bundle->imageInfo;
                artifact.binaryName = std::move(bundle->binaryName);
                artifact.numFunctions =
                    static_cast<std::size_t>(bundle->numFunctions);
                artifact.binaryBytes =
                    static_cast<std::size_t>(bundle->binaryBytes);
                artifact.behavior = std::move(bundle->behavior);
                runInferenceStage(artifact);
                recordRunCounters(artifact);
                return artifact;
            }
        }
    }

    // Stage 1a: unpack.
    obs::ScopedTimer unpackTimer("unpack");
    auto unpacked = fw::unpackFirmware(firmware);
    artifact.timings.unpackMs = unpackTimer.stopMs();
    if (!unpacked) {
        artifact.failureStage = PipelineArtifact::FailureStage::Unpack;
        artifact.error = unpacked.errorMessage();
        artifact.status = unpacked.status();
        recordRunCounters(artifact);
        return artifact;
    }

    artifact.imageInfo = unpacked.value().info;

    // Stage 1b: select the network binary and resolve libraries.
    obs::ScopedTimer selectTimer("select");
    auto target = fw::selectAnalysisTarget(unpacked.value().filesystem);
    artifact.timings.selectMs = selectTimer.stopMs();
    if (!target) {
        artifact.failureStage = PipelineArtifact::FailureStage::Select;
        artifact.error = target.errorMessage();
        artifact.status = target.status();
        recordRunCounters(artifact);
        return artifact;
    }
    artifact.target =
        std::make_unique<fw::AnalysisTarget>(target.take());
    artifact.binaryName = artifact.target->main->name;
    artifact.numFunctions = artifact.target->main->program.size();
    artifact.binaryBytes = artifact.target->main->byteSize();

    // A library that failed to lift degrades the run: analysis
    // proceeds against what did load, with the gaps on record.
    for (const auto &dep : artifact.target->missingLibraries) {
        artifact.degraded = true;
        artifact.issues.push_back(support::Status::error(
            support::Stage::Select, support::ErrorCode::NotFound,
            "library did not lift: " + dep));
    }

    // Stage 2: behavior representation (Algorithm 1), as three spans:
    // lift (link the images into one view), UCSE (whole-program
    // analysis), and BFV extraction. The linked view and the analysis
    // are retained on the artifact so taint engines can reuse them
    // without re-analyzing the binary.
    {
        obs::ScopedTimer liftTimer("lift");
        artifact.linked = std::make_unique<analysis::LinkedProgram>(
            *artifact.target->main, artifact.target->libraries);
        artifact.timings.liftMs = liftTimer.stopMs();
    }
    {
        obs::ScopedTimer ucseTimer("ucse");
        analysis::UcseConfig ucseConfig = config_.behavior.ucse;
        if (config_.budgets.behaviorMs > 0.0) {
            // One deadline for the whole stage, shared by every
            // function's exploration and dataflow pass.
            ucseConfig.deadline =
                support::Deadline::afterMs(config_.budgets.behaviorMs);
        }

        artifact.analysis =
            std::make_unique<analysis::ProgramAnalysis>(
                analysis::ProgramAnalysis::analyze(*artifact.linked,
                                                   ucseConfig));
        artifact.timings.ucseMs = ucseTimer.stopMs();

        std::size_t expired = 0;
        for (const auto &fa : artifact.analysis->fns) {
            if (fa.ucse.deadlineExpired || fa.flow.deadlineExpired)
                ++expired;
        }
        if (expired > 0) {
            artifact.degraded = true;
            artifact.issues.push_back(support::Status::error(
                support::Stage::Ucse, support::ErrorCode::Timeout,
                "behavior stage budget expired; " +
                    std::to_string(expired) +
                    " function(s) analyzed partially"));
        }
    }
    {
        obs::ScopedTimer bfvTimer("bfv");
        const BehaviorAnalyzer analyzer(config_.behavior);
        artifact.behavior = analyzer.analyze(*artifact.analysis);
        artifact.timings.bfvMs = bfvTimer.stopMs();
    }
    artifact.timings.behaviorMs = artifact.timings.liftMs +
                                  artifact.timings.ucseMs +
                                  artifact.timings.bfvMs;

    // Stage 3: inference (Algorithm 2).
    runInferenceStage(artifact);

    // Store the behavior product for the next run over these bytes.
    // Degraded samples are excluded: their representation reflects
    // missing libraries or expired budgets, not the firmware.
    if (cacheable && !artifact.degraded) {
        BehaviorBundle bundle;
        bundle.imageInfo = artifact.imageInfo;
        bundle.binaryName = artifact.binaryName;
        bundle.numFunctions = artifact.numFunctions;
        bundle.binaryBytes = artifact.binaryBytes;
        bundle.behavior = artifact.behavior;
        cache::storeBlob("behavior", cacheKey1, cacheKey2,
                         encodeBehaviorBundle(bundle));
    }

    recordRunCounters(artifact);
    return artifact;
}

void
FitsPipeline::runInferenceStage(PipelineArtifact &artifact) const
{
    obs::ScopedTimer inferTimer("infer");
    artifact.inference = inferIts(artifact.behavior, config_.infer);
    artifact.timings.inferMs = inferTimer.stopMs();
    artifact.timings.clusterMs = artifact.inference.clusterMs;
    artifact.timings.rankMs = artifact.inference.rankMs;

    if (!artifact.inference.ok()) {
        artifact.failureStage =
            PipelineArtifact::FailureStage::Inference;
        artifact.error = artifact.inference.error;
        artifact.status = support::Status::error(
            support::Stage::Infer, support::ErrorCode::NotFound,
            artifact.inference.error);
        return;
    }

    support::logInfo(
        "pipeline",
        artifact.binaryName + ": ranked " +
            std::to_string(artifact.inference.ranking.size()) +
            " ITS candidates");

    artifact.ok = true;
}

} // namespace fits::core
