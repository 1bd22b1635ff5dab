#ifndef FITS_EVAL_CORPUS_RUNNER_HH_
#define FITS_EVAL_CORPUS_RUNNER_HH_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "eval/harness.hh"
#include "obs/metrics.hh"
#include "support/thread_pool.hh"

namespace fits::eval {

/**
 * Parallel corpus evaluation engine: fans per-sample analysis out
 * across a fixed worker pool and collects results in input order.
 *
 * Guarantees, relied on by every bench binary and the `fits corpus`
 * CLI path:
 *  - *Determinism:* result i is whatever the serial loop would have
 *    produced for sample i. Samples share only immutable state (the
 *    spec list, the config, the loader), every worker writes only its
 *    own result slot, and per-sample analysis is seeded/RNG-free, so
 *    the jobs count never changes any reported number — only
 *    wall-clock time.
 *  - *Failure isolation:* a sample whose task throws (or whose
 *    pipeline errors) yields a failed outcome in its own slot and
 *    never poisons the rest of the batch.
 *  - *Jobs knob:* Config::jobs > 0 wins, else the FITS_JOBS
 *    environment variable, else hardware concurrency.
 */
class CorpusRunner
{
  public:
    struct Config
    {
        /** Worker count; 0 = FITS_JOBS env var / hardware. */
        std::size_t jobs = 0;
        /** Pipeline configuration applied to every sample. */
        core::PipelineConfig pipeline;
    };

    CorpusRunner()
        : CorpusRunner(Config{})
    {
    }

    explicit CorpusRunner(Config config);

    /** Resolved worker count; a batch of fewer items starts one
     * worker per item. */
    std::size_t jobs() const { return jobs_; }

    /** Turns a sample identity into the sample's bytes and ground
     * truth. Runs inside the workers, concurrently. */
    using Loader = std::function<synth::GeneratedFirmware(
        const synth::SampleSpec &)>;

    /**
     * Evaluate specs[i] into outcome i. Worker i loads its own sample
     * with `load`, analyzes it once into sampleOutcome(), and drops its
     * bytes before it takes the next one, so the corpus is never
     * resident at once. With `taint`, the four Table-5 configurations
     * also run on that artifact; the behavior cache serves only runs
     * without taint, since a cache hit carries no analysis for the
     * engines. A sample whose load or analysis throws gets an Internal
     * outcome that still names specs[i].
     */
    std::vector<SampleOutcome>
    run(const std::vector<synth::SampleSpec> &specs, bool taint = false,
        const Loader &load = synth::generateFirmware) const;

    /**
     * Generic deterministic fan-out: results[i] = make(i), computed on
     * the pool, with per-item failure isolation — if make(i) throws,
     * results[i] = onFailure(i, message) and every other item is
     * unaffected. R must be default-constructible.
     */
    template <typename R, typename MakeFn, typename FailFn>
    std::vector<R>
    map(std::size_t count, MakeFn &&make, FailFn &&onFailure) const
    {
        // At least one worker: ThreadPool(0) means the default count.
        const std::size_t workers =
            std::min(jobs_, std::max<std::size_t>(count, 1));
        const bool metrics = obs::enabled();
        if (metrics) {
            obs::setGauge("corpus.jobs", static_cast<double>(workers));
            obs::addCounter("corpus.batches");
            obs::addCounter("corpus.samples", count);
        }
        std::vector<R> results(count);
        support::ThreadPool pool(workers);
        for (std::size_t i = 0; i < count; ++i) {
            pool.submit([&results, &make, &onFailure, metrics, i] {
                const auto start =
                    std::chrono::steady_clock::now();
                try {
                    results[i] = make(i);
                } catch (const std::exception &e) {
                    obs::addCounter("corpus.failures");
                    results[i] = onFailure(i, std::string(e.what()));
                } catch (...) {
                    obs::addCounter("corpus.failures");
                    results[i] =
                        onFailure(i, std::string("unknown exception"));
                }
                if (metrics) {
                    obs::observe(
                        "corpus.sample_ms",
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
                }
            });
        }
        pool.wait();
        return results;
    }

  private:
    Config config_;
    std::size_t jobs_ = 1;
};

} // namespace fits::eval

#endif // FITS_EVAL_CORPUS_RUNNER_HH_
