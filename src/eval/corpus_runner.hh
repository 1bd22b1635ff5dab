#ifndef FITS_EVAL_CORPUS_RUNNER_HH_
#define FITS_EVAL_CORPUS_RUNNER_HH_

#include <chrono>
#include <cstddef>
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
 *    corpus, the config), every worker writes only its own result
 *    slot, and per-sample analysis is seeded/RNG-free, so the jobs
 *    count never changes any reported number — only wall-clock time.
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
        /** Reuse cached behavior products for inference runs. Taint
         * runs always re-analyze — they need the live analysis chain.
         * Results are bit-identical either way; only time changes. */
        bool cache = true;
        /** Non-empty: persist cached products here (the on-disk tier),
         * making repeated invocations over the same corpus
         * incremental. Defaults to the FITS_CACHE_DIR env var. */
        std::string cacheDir;
    };

    CorpusRunner()
        : CorpusRunner(Config{})
    {
    }

    explicit CorpusRunner(Config config);

    /** Resolved worker count actually used for fan-out. */
    std::size_t jobs() const { return jobs_; }

    /** Inference outcomes for each sample, in corpus order. */
    std::vector<InferenceOutcome>
    runInference(const std::vector<synth::GeneratedFirmware> &corpus)
        const;

    /** Like runInference, but generates each firmware inside its
     * worker — lower peak memory for large sweeps. */
    std::vector<InferenceOutcome>
    runInferenceOnSpecs(const std::vector<synth::SampleSpec> &specs)
        const;

    /** Inference and taint outcomes derived from ONE shared
     * per-sample pipeline artifact (the sample is unpacked, selected,
     * and analyzed exactly once). */
    struct FullOutcome
    {
        InferenceOutcome inference;
        TaintOutcome taint;
    };

    std::vector<FullOutcome>
    runFull(const std::vector<synth::GeneratedFirmware> &corpus) const;

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
        const bool metrics = obs::enabled();
        if (metrics) {
            obs::setGauge("corpus.jobs", static_cast<double>(jobs_));
            obs::addCounter("corpus.batches");
            obs::addCounter("corpus.samples", count);
        }
        std::vector<R> results(count);
        support::ThreadPool pool(jobs_);
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
    /**
     * The fan-out behind every run* method: outcome i is analyze(i).
     * If a worker throws, outcome i instead carries the sample
     * identity that label(i, outcome) fills in and a "worker
     * exception" error.
     */
    template <typename R, typename AnalyzeFn, typename LabelFn>
    std::vector<R> runEach(std::size_t count, AnalyzeFn &&analyze,
                           LabelFn &&label) const;

    /** Pipeline config for inference-only runs: behavior caching on
     * when Config::cache allows it. */
    core::PipelineConfig inferencePipelineConfig() const;

    /** Pipeline config for runs that feed taint engines: behavior
     * caching forced off, since a cache hit carries no analysis
     * chain for the taint stage to reuse. */
    core::PipelineConfig taintPipelineConfig() const;

    Config config_;
    std::size_t jobs_ = 1;
};

} // namespace fits::eval

#endif // FITS_EVAL_CORPUS_RUNNER_HH_
