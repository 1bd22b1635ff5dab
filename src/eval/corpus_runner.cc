#include "corpus_runner.hh"

#include "cache/cache.hh"

namespace fits::eval {

namespace {

template <typename Outcome>
void
failWith(Outcome &outcome, const std::string &error)
{
    outcome.error = error;
    outcome.status = support::Status::internal(error);
}

void
failWith(CorpusRunner::FullOutcome &full, const std::string &error)
{
    failWith(full.inference, error);
    failWith(full.taint, error);
}

} // namespace

CorpusRunner::CorpusRunner(Config config)
    : config_(std::move(config)),
      jobs_(support::resolveJobs(config_.jobs))
{
    if (!config_.cacheDir.empty()) {
        cache::Options options = cache::options();
        options.disk = true;
        options.dir = config_.cacheDir;
        cache::configure(options);
    }
}

core::PipelineConfig
CorpusRunner::inferencePipelineConfig() const
{
    core::PipelineConfig config = config_.pipeline;
    config.behaviorCache = config_.cache;
    return config;
}

core::PipelineConfig
CorpusRunner::taintPipelineConfig() const
{
    core::PipelineConfig config = config_.pipeline;
    config.behaviorCache = false;
    return config;
}

template <typename R, typename AnalyzeFn, typename LabelFn>
std::vector<R>
CorpusRunner::runEach(std::size_t count, AnalyzeFn &&analyze,
                      LabelFn &&label) const
{
    return map<R>(
        count, analyze,
        [&](std::size_t i, const std::string &message) {
            R outcome;
            label(i, outcome);
            failWith(outcome, "worker exception: " + message);
            return outcome;
        });
}

std::vector<InferenceOutcome>
CorpusRunner::runInference(
    const std::vector<synth::GeneratedFirmware> &corpus) const
{
    const core::PipelineConfig config = inferencePipelineConfig();
    return runEach<InferenceOutcome>(
        corpus.size(),
        [&](std::size_t i) {
            return eval::runInference(corpus[i], config);
        },
        [&](std::size_t i, InferenceOutcome &outcome) {
            outcome.spec = corpus[i].spec;
            outcome.truth = corpus[i].truth;
        });
}

std::vector<InferenceOutcome>
CorpusRunner::runInferenceOnSpecs(
    const std::vector<synth::SampleSpec> &specs) const
{
    const core::PipelineConfig config = inferencePipelineConfig();
    return runEach<InferenceOutcome>(
        specs.size(),
        [&](std::size_t i) {
            return eval::runInference(synth::generateFirmware(specs[i]),
                                      config);
        },
        [&](std::size_t i, InferenceOutcome &outcome) {
            outcome.spec = specs[i];
        });
}

std::vector<CorpusRunner::FullOutcome>
CorpusRunner::runFull(
    const std::vector<synth::GeneratedFirmware> &corpus) const
{
    const core::PipelineConfig config = taintPipelineConfig();
    return runEach<FullOutcome>(
        corpus.size(),
        [&](std::size_t i) {
            const core::PipelineArtifact artifact =
                core::FitsPipeline(config).analyze(corpus[i].bytes);
            FullOutcome full;
            full.inference = inferenceOutcome(artifact, corpus[i].spec,
                                              corpus[i].truth);
            full.taint = taintOutcome(artifact, corpus[i].spec,
                                      corpus[i].truth,
                                      config.budgets.taintMs);
            return full;
        },
        [&](std::size_t i, FullOutcome &full) {
            full.inference.spec = corpus[i].spec;
            full.inference.truth = corpus[i].truth;
            full.taint.spec = corpus[i].spec;
        });
}

} // namespace fits::eval
