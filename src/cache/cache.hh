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
 * Blob store for serialized whole-sample products, shared by every
 * pipeline in the process:
 *
 *  - *Memory tier:* a byte-keyed LRU of payloads, so a sample analyzed
 *    earlier in the same process is not re-analyzed.
 *  - *Disk tier:* an optional persistent store under a cache directory
 *    (`FITS_CACHE_DIR` or `configure()`), with a versioned entry
 *    format whose payload is checksummed with XXH64
 *    (support::hash64). A disk hit is read straight into the buffer
 *    the memory tier keeps. Any validation failure — bad magic,
 *    version skew, length or checksum mismatch, a short read — quietly
 *    degrades to a miss; repeated `fits corpus` invocations become
 *    incremental.
 *
 * Lifted images and per-function analyses are not cached: every sample
 * lifts and analyzes its own binaries.
 *
 * Correctness rules, enforced here and relied on by the determinism
 * test suite:
 *  - Results are bit-identical with and without the cache, and across
 *    hits vs. misses: payloads are immutable bytes, and the codecs
 *    store doubles by bit pattern.
 *  - Callers must additionally bypass when a wall-clock deadline is
 *    active (partial results are not reusable).
 *
 * Eviction: the memory tier is LRU over approximate entry bytes with a
 * configurable budget; the disk tier is never evicted here (entries
 * are invalidated by version/fingerprint and can be deleted freely by
 * the operator).
 */

struct Options
{
    /** In-process blob tier. */
    bool memory = true;
    /** Persistent blob tier; requires a non-empty `dir`. */
    bool disk = false;
    /** Disk tier root directory (created on first store). */
    std::string dir;
    /** Approximate memory-tier budget in bytes (LRU beyond this). */
    std::size_t maxBytes = 256ull << 20;
};

/** Replace the active options. Never clears cached entries — disable
 * tiers to stop consulting them, `clearMemory()` to drop them. */
void configure(const Options &options);

Options options();

/** Drop every in-process entry (tests; frees the memory budget). */
void clearMemory();

/** Monotonic counters since the last resetStats(). `bytes` is the
 * current approximate memory-tier footprint (not monotonic). */
struct Stats
{
    std::uint64_t hits = 0;       ///< memory-tier hits
    std::uint64_t misses = 0;     ///< memory-tier misses
    std::uint64_t diskHits = 0;   ///< disk-tier hits
    std::uint64_t diskMisses = 0; ///< disk-tier misses
    std::uint64_t diskCorrupt = 0; ///< disk entries rejected as invalid
    std::uint64_t evictions = 0;  ///< memory-tier LRU evictions
    std::uint64_t bytes = 0;      ///< current memory-tier bytes
};

Stats stats();
void resetStats();

/** True when the memory tier is enabled. */
bool memoryUsable();

/** Same gate for the disk tier (also requires a directory). */
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
 * Fetch a serialized product from the blob store: memory tier first,
 * then disk (a disk hit is promoted to memory). `kind` namespaces
 * independent products ("behavior", ...); keys are caller-derived
 * hashes (content hash + config fingerprint).
 */
std::optional<std::string> fetchBlob(std::string_view kind,
                                     std::uint64_t key1,
                                     std::uint64_t key2);

/** Store a serialized product in every usable tier. Disk write
 * failures (an uncreatable directory, a failed write) skip the entry
 * silently — the cache is an accelerator, never a correctness
 * dependency. */
void storeBlob(std::string_view kind, std::uint64_t key1,
               std::uint64_t key2, std::string_view payload);

/** Disk path a blob entry would use (tests poke at entries to corrupt
 * them); empty when no directory is configured. */
std::string blobPath(std::string_view kind, std::uint64_t key1,
                     std::uint64_t key2);

} // namespace fits::cache

#endif // FITS_CACHE_CACHE_HH_
