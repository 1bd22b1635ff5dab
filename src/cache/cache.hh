#ifndef FITS_CACHE_CACHE_HH_
#define FITS_CACHE_CACHE_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/function_analysis.hh"
#include "binary/image.hh"

namespace fits::cache {

/**
 * Persistent blob store for serialized whole-sample products, shared by
 * every pipeline in the process. It is the cache directory
 * (`FITS_CACHE_DIR` or `configure()`) or nothing: with no directory,
 * every fetch misses and every store is skipped without touching a
 * counter or a file.
 *
 * Entries use a versioned format whose payload is checksummed with
 * XXH64 (support::hash64). A hit reads the payload straight into the
 * string that is returned. Any validation failure — bad magic, version
 * skew, length or checksum mismatch, a short read — quietly degrades
 * to a miss; repeated `fits corpus` invocations become incremental.
 *
 * There is no in-process tier: within one run each bundle is stored
 * once and never read back (DESIGN §10). Lifted images and
 * per-function analyses are not cached either: every sample lifts and
 * analyzes its own binaries.
 *
 * Correctness rules, enforced here and relied on by the determinism
 * test suite:
 *  - Results are bit-identical with and without the cache, and across
 *    hits vs. misses: payloads are immutable bytes, and the codecs
 *    store doubles by bit pattern.
 *  - Callers must additionally bypass when a wall-clock deadline is
 *    active (partial results are not reusable).
 *
 * Nothing is evicted here: entries are invalidated by
 * version/fingerprint and can be deleted freely by the operator.
 */

struct Options
{
    /** Never read: the tier is armed by a non-empty `dir` alone. Set
     * only by the corpus benchmark's traced driver, until ROADMAP
     * item 3 step B. */
    bool disk = false;
    /** Cache directory (created on first store); empty turns the
     * store off. */
    std::string dir;
};

/** Replace the active options. Never deletes entries. */
void configure(const Options &options);

/** A no-op, kept for the corpus benchmark's traced driver until
 * ROADMAP item 3 step B. */
void clearMemory();

/** Monotonic counters since the last resetStats(). */
struct Stats
{
    /** Never written; read only by the traced driver until ROADMAP
     * item 3 step B. */
    std::uint64_t hits = 0;
    /** functionAnalyses() calls; read only by the traced driver until
     * ROADMAP item 3 step B. */
    std::uint64_t misses = 0;
    std::uint64_t diskHits = 0;    ///< blob fetches served
    std::uint64_t diskMisses = 0;  ///< blob fetches not served
    std::uint64_t diskCorrupt = 0; ///< entries rejected as invalid
    /** Never written; read only by the traced driver until ROADMAP
     * item 3 step B. */
    std::uint64_t bytes = 0;
};

Stats stats();
void resetStats();

/** True when a cache directory is configured. */
bool diskUsable();

/**
 * The function analyses of `image` under `config`, in `image->program`
 * order; they point into `*image`, which the caller keeps alive. Never
 * memoized: every call computes afresh and counts one miss in
 * `Stats::misses`. Nothing in the pipeline calls it; it exists for
 * the corpus benchmark's traced driver (corpusbench/), which replays
 * reaching-defs for each image whose call counted a miss.
 */
std::shared_ptr<const std::vector<analysis::FunctionAnalysis>>
functionAnalyses(const std::shared_ptr<const bin::BinaryImage> &image,
                 const analysis::UcseConfig &config);

/**
 * Fetch a serialized product from the cache directory. `kind`
 * namespaces independent products ("behavior", ...); keys are
 * caller-derived hashes (content hash + config fingerprint).
 */
std::optional<std::string> fetchBlob(std::string_view kind,
                                     std::uint64_t key1,
                                     std::uint64_t key2);

/** Store a serialized product in the cache directory. Write failures
 * (an uncreatable directory, a failed write) skip the entry silently —
 * the cache is an accelerator, never a correctness dependency. */
void storeBlob(std::string_view kind, std::uint64_t key1,
               std::uint64_t key2, std::string_view payload);

/** Disk path a blob entry would use (tests poke at entries to corrupt
 * them); empty when no directory is configured. */
std::string blobPath(std::string_view kind, std::uint64_t key1,
                     std::uint64_t key2);

} // namespace fits::cache

#endif // FITS_CACHE_CACHE_HH_
