#include "corpus_runner.hh"

namespace fits::eval {

CorpusRunner::CorpusRunner(Config config)
    : config_(std::move(config)),
      jobs_(support::resolveJobs(config_.jobs))
{
}

std::vector<CorpusRunner::FullOutcome>
CorpusRunner::run(const std::vector<synth::SampleSpec> &specs,
                  bool taint, const Loader &load) const
{
    core::PipelineConfig config = config_.pipeline;
    config.behaviorCache = !taint;
    return map<FullOutcome>(
        specs.size(),
        [&](std::size_t i) {
            const synth::GeneratedFirmware fw = load(specs[i]);
            const core::PipelineArtifact artifact =
                core::FitsPipeline(config).analyze(fw.bytes);
            FullOutcome full;
            full.inference =
                inferenceOutcome(artifact, specs[i], fw.truth);
            if (taint) {
                full.taint = taintOutcome(artifact, specs[i], fw.truth,
                                          config.budgets.taintMs);
            }
            return full;
        },
        [&](std::size_t i, const std::string &message) {
            FullOutcome full;
            const auto fail = [&](auto &outcome) {
                outcome.spec = specs[i];
                outcome.error = "worker exception: " + message;
                outcome.status =
                    support::Status::internal(outcome.error);
            };
            fail(full.inference);
            fail(full.taint);
            return full;
        });
}

} // namespace fits::eval
