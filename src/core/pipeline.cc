#include "pipeline.hh"

#include "cache/cache.hh"
#include "core/behavior_io.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace fits::core {

namespace {

void
recordRunCounters(const PipelineArtifact &artifact)
{
    if (!obs::enabled())
        return;
    obs::addCounter("pipeline.runs");
    if (artifact.ok()) {
        obs::addCounter("pipeline.ok");
        obs::addCounter("pipeline.functions",
                        artifact.numFunctions);
    } else {
        const std::string stage =
            support::stageName(artifact.status.stage());
        obs::addCounter("pipeline.failures." + stage);
        obs::addCounter("pipeline.errors." + stage);
    }
    if (artifact.degraded)
        obs::addCounter("pipeline.degraded");
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
    runStages(firmware, artifact);
    artifact.analysisMs = pipelineSpan.stopMs();
    recordRunCounters(artifact);
    return artifact;
}

void
FitsPipeline::runStages(const std::vector<std::uint8_t> &firmware,
                        PipelineArtifact &artifact) const
{
    // Behavior-cache fast path: the whole-sample behavior product is
    // keyed by (firmware content hash, behavior-config fingerprint).
    // An active stage budget disqualifies the sample — budget-bound
    // results are timing-dependent and must be neither served nor
    // stored. A hit replays stage 3 on the decoded representation; any
    // decode defect silently falls through to the full pipeline.
    const bool cacheable = config_.behaviorCache &&
                           config_.budgets.behaviorMs <= 0.0 &&
                           !config_.behavior.ucse.deadline.active() &&
                           cache::diskUsable();
    std::uint64_t cacheKey1 = 0;
    std::uint64_t cacheKey2 = 0;
    if (cacheable) {
        cacheKey1 = support::hash64(firmware.data(), firmware.size());
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
                return;
            }
        }
    }

    // Stage 1a: unpack.
    auto unpacked = [&] {
        const obs::ScopedTimer unpackTimer("unpack");
        return fw::unpackFirmware(firmware);
    }();
    if (!unpacked) {
        artifact.status = unpacked.status();
        return;
    }

    artifact.imageInfo = unpacked.value().info;

    // Stage 1b: select the network binary and resolve libraries.
    auto target = [&] {
        const obs::ScopedTimer selectTimer("select");
        return fw::selectAnalysisTarget(unpacked.value().filesystem);
    }();
    if (!target) {
        artifact.status = target.status();
        return;
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
        const obs::ScopedTimer liftTimer("lift");
        artifact.linked = std::make_unique<analysis::LinkedProgram>(
            *artifact.target->main, artifact.target->libraries);
    }
    {
        const obs::ScopedTimer ucseTimer("ucse");
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
    }
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
    {
        const obs::ScopedTimer bfvTimer("bfv");
        const BehaviorAnalyzer analyzer(config_.behavior);
        artifact.behavior = analyzer.analyze(*artifact.analysis);
    }

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
}

void
FitsPipeline::runInferenceStage(PipelineArtifact &artifact) const
{
    {
        const obs::ScopedTimer inferTimer("infer");
        artifact.inference = inferIts(artifact.behavior, config_.infer);
    }
    if (!artifact.inference.ok()) {
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
}

} // namespace fits::core
