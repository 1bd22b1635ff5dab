#include "corpus_runner.hh"

#include <algorithm>

#include "cache/cache.hh"

namespace fits::eval {

namespace {

/** A failure worth one more attempt: an expired deadline, an injected
 * fault, or an internal error — anything a second, cheaper run can
 * plausibly get past. Deterministic parse errors are not retried. */
template <typename Outcome>
bool
retryable(const Outcome &outcome)
{
    return !outcome.ok && !outcome.status.isOk() &&
           outcome.status.isTransient();
}

bool
retryable(const CorpusRunner::FullOutcome &full)
{
    return retryable(full.inference);
}

template <typename Outcome>
void
markRetried(Outcome &outcome)
{
    outcome.retried = true;
}

void
markRetried(CorpusRunner::FullOutcome &full)
{
    markRetried(full.inference);
    markRetried(full.taint);
}

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
CorpusRunner::degradedPipelineConfig() const
{
    // The retry runs under a reduced UCSE budget: a sample that timed
    // out (or tripped a transient fault) gets one more chance to
    // produce a partial result instead of none.
    core::PipelineConfig config = config_.pipeline;
    config.behavior.ucse.maxSteps = std::min<std::size_t>(
        config.behavior.ucse.maxSteps, 10000);
    config.behavior.ucse.maxVisitsPerBlock = std::min<std::size_t>(
        config.behavior.ucse.maxVisitsPerBlock, 2);
    // Retries never touch the behavior cache: a sample that just
    // failed transiently should be recomputed from scratch, not
    // have its recovery product stored for future runs.
    config.behaviorCache = false;
    return config;
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
CorpusRunner::runEach(std::size_t count,
                      const core::PipelineConfig &pipeline,
                      AnalyzeFn &&analyze, LabelFn &&label) const
{
    return map<R>(
        count,
        [&](std::size_t i) {
            R outcome = analyze(i, pipeline);
            if (retryable(outcome)) {
                obs::addCounter("corpus.retries");
                outcome = analyze(i, degradedPipelineConfig());
                markRetried(outcome);
            }
            return outcome;
        },
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
    return runEach<InferenceOutcome>(
        corpus.size(), inferencePipelineConfig(),
        [&](std::size_t i, const core::PipelineConfig &config) {
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
    return runEach<InferenceOutcome>(
        specs.size(), inferencePipelineConfig(),
        [&](std::size_t i, const core::PipelineConfig &config) {
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
    return runEach<FullOutcome>(
        corpus.size(), taintPipelineConfig(),
        [&](std::size_t i, const core::PipelineConfig &config) {
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
