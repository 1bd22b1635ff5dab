#ifndef FITS_EVAL_REPORT_HH_
#define FITS_EVAL_REPORT_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fits::eval {

/**
 * Text reports of the `fits corpus`, `fits rank` and `fits taint`
 * commands. Keeping the rendering out of the CLI's argument handling
 * lets tests/cli_test.sh pin the `fits corpus` body byte-for-byte
 * against corpusbench/expected/.
 *
 * Everything here is deterministic except wall-clock milliseconds,
 * which are reported as data (never baked into `text`) so the caller
 * places the timing line itself.
 */

/** One corpus evaluation request. */
struct CorpusOptions
{
    /** Worker count; 0 = FITS_JOBS / hardware (CorpusRunner rules). */
    std::size_t jobs = 0;
    /** Also run the four Table-5 taint configurations. */
    bool taint = false;
    /** Evaluate every *.fwimg under this directory instead of the
     * standard synthetic corpus. Only the file names are listed up
     * front; each worker reads its own file. */
    std::string dir;
    /** Called with the "evaluating N samples with J worker
     * threads...\n\n" header before any sample is generated or read,
     * so the CLI shows progress. */
    std::function<void(const std::string &)> onHeader;
};

/** Rendered outcome of one corpus evaluation. */
struct CorpusReport
{
    /** False when the corpus could not be listed at all (bad --dir,
     * zero samples); `error` carries the exact one-shot diagnostic. */
    bool ok = false;
    std::string error;

    /** Deterministic report body: the per-vendor precision table,
     * the taint-engine table (when requested), and the
     * failed/degraded summary lines. */
    std::string text;
    /** Per-sample "sample failed:"/"sample degraded:" diagnostics,
     * one per line, in outcome order (the one-shot stderr stream). */
    std::string diagnostics;

    std::size_t samples = 0;
    std::size_t failed = 0;
    /** Resolved worker count used for the fan-out. */
    std::size_t jobs = 0;
    double wallMs = 0.0;

    /** One-shot process exit code: 1 when every sample failed. */
    int
    exitCode() const
    {
        return samples > 0 && failed == samples ? 1 : 0;
    }
};

/** Run a corpus evaluation and render it. Names the samples (the
 * standard dataset or the --dir files), lets the CorpusRunner workers
 * generate or read them, and renders exactly the tables `fits corpus`
 * prints. */
CorpusReport runCorpusReport(const CorpusOptions &options);

/** "wall clock: %.1f ms with %zu jobs\n" — the one-shot timing line. */
std::string renderWallClock(double wallMs, std::size_t jobs);

/** "cache: H hits / M misses, X MiB, tier=...\n" over the process-wide
 * cache counters, exactly as `fits corpus` prints it. */
std::string renderCacheSummary();

/** Rendered outcome of a single-image report (rank / taint). */
struct TextReport
{
    bool ok = false;
    std::string error; ///< one-shot stderr diagnostic when !ok
    std::string text;  ///< one-shot stdout text when ok
};

/** `fits rank` body: run the pipeline on image bytes and render the
 * analyzed-summary line plus the top-`top` ranking. */
TextReport runRankReport(const std::vector<std::uint8_t> &bytes,
                         std::size_t top, bool useSymbols);

/** `fits taint` body: run one engine ("sta" or "karonte") with the
 * classical sources plus the given ITS addresses and render the alert
 * list (ITS runs apply the system-data filter). */
TextReport runTaintReport(const std::vector<std::uint8_t> &bytes,
                          const std::string &engine,
                          const std::vector<std::uint64_t> &itsAddrs);

} // namespace fits::eval

#endif // FITS_EVAL_REPORT_HH_
