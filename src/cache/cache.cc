#include "cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hh"
#include "support/strings.hh"

namespace fits::cache {

namespace {

/** Disk entry format version; a mismatch reads as a miss. Version 2
 * checksums the payload with XXH64 (support::hash64), not FNV-1a. */
constexpr std::uint32_t kDiskFormatVersion = 2;
constexpr char kDiskMagic[4] = {'F', 'C', 'H', '1'};
/** Magic, version, both keys, payload size, payload checksum. */
constexpr std::size_t kDiskHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

// ---- counters (lock-free; the mutex below guards only the maps) ----

struct Counters
{
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> diskMisses{0};
    std::atomic<std::uint64_t> diskCorrupt{0};
    std::atomic<std::uint64_t> evictions{0};
};

Counters &
counters()
{
    static auto *c = new Counters;
    return *c;
}

void
bumpHit()
{
    counters().hits.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        obs::addCounter("cache.hits");
}

void
bumpMiss()
{
    counters().misses.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        obs::addCounter("cache.misses");
}

void
bumpDisk(bool hit)
{
    auto &c = hit ? counters().diskHits : counters().diskMisses;
    c.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
        obs::addCounter(hit ? "cache.disk.hits"
                            : "cache.disk.misses");
    }
}

void
bumpDiskCorrupt()
{
    counters().diskCorrupt.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        obs::addCounter("cache.disk.corrupt");
}

// ---- memory tier ---------------------------------------------------

struct BlobEntry
{
    std::shared_ptr<const std::string> payload;
    std::uint64_t tick = 0;
    std::size_t bytes = 0;
};

struct State
{
    std::mutex mutex;
    Options options;
    std::uint64_t tick = 0;
    std::size_t totalBytes = 0;
    std::unordered_map<std::string, BlobEntry> blobs;
};

State &
state()
{
    // Leaked singleton (mirrors obs): cached products may be
    // referenced from worker threads during static destruction.
    static auto *s = new State;
    return *s;
}

/** FITS_CACHE_DIR arms the disk tier at load time. */
struct EnvInit
{
    EnvInit()
    {
        const char *env = std::getenv("FITS_CACHE_DIR");
        if (env == nullptr || *env == '\0')
            return;
        State &s = state();
        const std::lock_guard<std::mutex> lock(s.mutex);
        s.options.disk = true;
        s.options.dir = env;
    }
};

const EnvInit g_envInit;

void
publishBytesLocked(const State &s)
{
    if (obs::enabled())
        obs::setGauge("cache.bytes",
                      static_cast<double>(s.totalBytes));
}

/** Evict least-recently-used blobs until under budget. */
void
evictLocked(State &s)
{
    while (s.totalBytes > s.options.maxBytes && !s.blobs.empty()) {
        const auto oldest = std::min_element(
            s.blobs.begin(), s.blobs.end(),
            [](const auto &a, const auto &b) {
                return a.second.tick < b.second.tick;
            });
        s.totalBytes -= oldest->second.bytes;
        s.blobs.erase(oldest);
        counters().evictions.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled())
            obs::addCounter("cache.evictions");
    }
}

/** Put `payload` in the memory tier under `key` and return the bytes
 * the tier holds. Keys are content-derived, so an existing entry
 * already holds these bytes and only has its recency refreshed. */
std::shared_ptr<const std::string>
rememberLocked(State &s, const std::string &key, std::string payload)
{
    auto &entry = s.blobs[key];
    entry.tick = ++s.tick;
    if (entry.payload != nullptr)
        return entry.payload;
    entry.bytes = key.size() + payload.size() + 64;
    entry.payload = std::make_shared<const std::string>(std::move(payload));
    auto held = entry.payload;
    s.totalBytes += entry.bytes;
    evictLocked(s);
    publishBytesLocked(s);
    return held;
}

std::string
blobKeyOf(std::string_view kind, std::uint64_t key1,
          std::uint64_t key2)
{
    return std::string(kind) +
           support::format(":%016llx:%016llx",
                           static_cast<unsigned long long>(key1),
                           static_cast<unsigned long long>(key2));
}

// ---- disk tier -----------------------------------------------------

/** Append the low `n` bytes of v, least significant first. */
void
appendLe(std::string &out, std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

/** The `n`-byte little-endian integer at `p`. */
std::uint64_t
readLe(const char *p, int n)
{
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/** Read + validate one disk entry; nullopt on any defect. The payload
 * is read straight into the string that is returned. */
std::optional<std::string>
readDiskEntry(const std::string &path, std::uint64_t key1,
              std::uint64_t key2)
{
    std::error_code ec;
    const std::uintmax_t fileSize = std::filesystem::file_size(path, ec);
    if (ec)
        return std::nullopt;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;

    const auto corrupt = [] {
        bumpDiskCorrupt();
        return std::nullopt;
    };

    char header[kDiskHeaderBytes];
    if (fileSize < kDiskHeaderBytes)
        return corrupt();
    if (!in.read(header, kDiskHeaderBytes))
        return std::nullopt;
    if (std::memcmp(header, kDiskMagic, 4) != 0 ||
        readLe(header + 4, 4) != kDiskFormatVersion ||
        readLe(header + 8, 8) != key1 || readLe(header + 16, 8) != key2)
        return corrupt();
    const std::uint64_t size = readLe(header + 24, 8);
    const std::uint64_t checksum = readLe(header + 32, 8);
    if (fileSize - kDiskHeaderBytes != size)
        return corrupt();

    std::string payload(static_cast<std::size_t>(size), '\0');
    if (!in.read(payload.data(), static_cast<std::streamsize>(size)))
        return std::nullopt;
    if (support::hash64(payload.data(), payload.size()) != checksum)
        return corrupt();
    return payload;
}

/** Write one disk entry atomically (temp file + rename). Failures are
 * swallowed: a cache store that does not land is just a future miss. */
void
writeDiskEntry(const std::string &dir, const std::string &path,
               std::uint64_t key1, std::uint64_t key2,
               std::string_view payload)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return;

    std::string header;
    header.reserve(kDiskHeaderBytes);
    header.append(kDiskMagic, 4);
    appendLe(header, kDiskFormatVersion, 4);
    appendLe(header, key1, 8);
    appendLe(header, key2, 8);
    appendLe(header, payload.size(), 8);
    appendLe(header, support::hash64(payload.data(), payload.size()), 8);

    const std::string tmp = path + support::format(
        ".tmp.%llu", static_cast<unsigned long long>(
                         reinterpret_cast<std::uintptr_t>(&header)));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            out.close();
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

} // namespace

void
configure(const Options &options)
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.options = options;
    evictLocked(s);
    publishBytesLocked(s);
}

Options
options()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.options;
}

void
clearMemory()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.blobs.clear();
    s.totalBytes = 0;
    publishBytesLocked(s);
}

Stats
stats()
{
    Stats out;
    const Counters &c = counters();
    out.hits = c.hits.load(std::memory_order_relaxed);
    out.misses = c.misses.load(std::memory_order_relaxed);
    out.diskHits = c.diskHits.load(std::memory_order_relaxed);
    out.diskMisses = c.diskMisses.load(std::memory_order_relaxed);
    out.diskCorrupt = c.diskCorrupt.load(std::memory_order_relaxed);
    out.evictions = c.evictions.load(std::memory_order_relaxed);
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    out.bytes = s.totalBytes;
    return out;
}

void
resetStats()
{
    Counters &c = counters();
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
    c.diskHits.store(0, std::memory_order_relaxed);
    c.diskMisses.store(0, std::memory_order_relaxed);
    c.diskCorrupt.store(0, std::memory_order_relaxed);
    c.evictions.store(0, std::memory_order_relaxed);
}

bool
memoryUsable()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.options.memory;
}

bool
diskUsable()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.options.disk && !s.options.dir.empty();
}

std::shared_ptr<const std::vector<analysis::FunctionAnalysis>>
functionAnalyses(const std::shared_ptr<const bin::BinaryImage> &image,
                 const analysis::UcseConfig &config)
{
    bumpMiss();
    auto fns = std::make_shared<std::vector<analysis::FunctionAnalysis>>();
    fns->reserve(image->program.size());
    for (const auto &fn : image->program.functions())
        fns->push_back(
            analysis::FunctionAnalysis::analyze(*image, fn, config));
    return fns;
}

std::string
blobPath(std::string_view kind, std::uint64_t key1,
         std::uint64_t key2)
{
    State &s = state();
    std::string dir;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        dir = s.options.dir;
    }
    if (dir.empty())
        return {};
    return dir + "/" + std::string(kind) +
           support::format("-%016llx%016llx.fcb",
                           static_cast<unsigned long long>(key1),
                           static_cast<unsigned long long>(key2));
}

std::optional<std::string>
fetchBlob(std::string_view kind, std::uint64_t key1,
          std::uint64_t key2)
{
    const bool memTier = memoryUsable();
    const bool diskTier = diskUsable();
    if (!memTier && !diskTier)
        return std::nullopt;

    const std::string key = blobKeyOf(kind, key1, key2);
    State &s = state();

    if (memTier) {
        std::shared_ptr<const std::string> payload;
        {
            const std::lock_guard<std::mutex> lock(s.mutex);
            auto it = s.blobs.find(key);
            if (it != s.blobs.end()) {
                it->second.tick = ++s.tick;
                payload = it->second.payload;
            }
        }
        if (payload != nullptr) {
            bumpHit();
            return *payload;
        }
        bumpMiss();
    }

    if (!diskTier)
        return std::nullopt;

    const std::string path = blobPath(kind, key1, key2);
    auto payload = readDiskEntry(path, key1, key2);
    bumpDisk(payload.has_value());
    if (!payload.has_value())
        return std::nullopt;

    if (memTier) {
        // Promote so the next fetch in this process skips the disk.
        // The tier keeps the buffer the file was read into; the caller
        // gets a copy.
        std::shared_ptr<const std::string> held;
        {
            const std::lock_guard<std::mutex> lock(s.mutex);
            held = rememberLocked(s, key, std::move(*payload));
        }
        return *held;
    }
    return payload;
}

void
storeBlob(std::string_view kind, std::uint64_t key1,
          std::uint64_t key2, std::string_view payload)
{
    const bool memTier = memoryUsable();
    const bool diskTier = diskUsable();
    if (!memTier && !diskTier)
        return;

    const std::string key = blobKeyOf(kind, key1, key2);
    State &s = state();

    if (memTier) {
        const std::lock_guard<std::mutex> lock(s.mutex);
        rememberLocked(s, key, std::string(payload));
    }

    if (diskTier) {
        std::string dir;
        {
            const std::lock_guard<std::mutex> lock(s.mutex);
            dir = s.options.dir;
        }
        writeDiskEntry(dir, blobPath(kind, key1, key2), key1, key2,
                       payload);
    }
}

} // namespace fits::cache
