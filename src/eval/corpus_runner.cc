#include "corpus_runner.hh"

namespace fits::eval {

CorpusRunner::CorpusRunner(Config config)
    : config_(std::move(config)),
      jobs_(support::resolveJobs(config_.jobs))
{
}

std::vector<SampleOutcome>
CorpusRunner::run(const std::vector<synth::SampleSpec> &specs,
                  bool taint, const Loader &load) const
{
    core::PipelineConfig config = config_.pipeline;
    config.behaviorCache = !taint;
    return map<SampleOutcome>(
        specs.size(),
        [&](std::size_t i) {
            synth::GeneratedFirmware fw = load(specs[i]);
            return sampleOutcome(
                core::FitsPipeline(config).analyze(fw.bytes), specs[i],
                std::move(fw.truth), taint, config.budgets.taintMs);
        },
        [&](std::size_t i, const std::string &message) {
            SampleOutcome outcome;
            outcome.spec = specs[i];
            outcome.status = support::Status::internal(
                "worker exception: " + message);
            return outcome;
        });
}

} // namespace fits::eval
