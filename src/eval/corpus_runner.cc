#include "corpus_runner.hh"

#include <cctype>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace fits::eval {

namespace {

/** `requested` when positive, else FITS_JOBS when it is a positive
 * decimal integer (a sign, as in "-1", falls through), else the
 * hardware thread count, never 0. */
std::size_t
resolveJobs(std::size_t requested)
{
    if (requested > 0)
        return requested;
    const char *env = std::getenv("FITS_JOBS");
    if (env != nullptr && std::isdigit(static_cast<unsigned char>(*env))) {
        char *end = nullptr;
        const unsigned long parsed = std::strtoul(env, &end, 10);
        if (*end == '\0' && parsed > 0)
            return static_cast<std::size_t>(parsed);
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

} // namespace

CorpusRunner::CorpusRunner(Config config)
    : config_(std::move(config)), jobs_(resolveJobs(config_.jobs))
{
}

void
CorpusRunner::fanOut(std::size_t workers,
                     const std::function<void(std::size_t)> &work)
{
    // An exception escaping a thread's entry terminates the process:
    // keep the first one and rethrow it here once every worker joined.
    std::mutex escapedMutex;
    std::exception_ptr escaped;
    const auto entry = [&](std::size_t k) {
        try {
            work(k);
        } catch (...) {
            std::lock_guard<std::mutex> lock(escapedMutex);
            if (!escaped)
                escaped = std::current_exception();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
        for (std::size_t k = 0; k < workers; ++k)
            threads.emplace_back(entry, k);
    } catch (...) {
        // Destroying a joinable thread terminates the process, so a
        // partial start still joins what it started.
        if (threads.empty())
            throw;
    }
    for (auto &thread : threads)
        thread.join();
    if (escaped)
        std::rethrow_exception(escaped);
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
