#include "cache.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "binary/bytebuf.hh"
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

// ---- counters (lock-free; the mutex below guards only the directory)

struct Counters
{
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> diskMisses{0};
    std::atomic<std::uint64_t> diskCorrupt{0};
};

Counters &
counters()
{
    static auto *c = new Counters;
    return *c;
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

struct State
{
    std::mutex mutex;
    std::string dir;
};

State &
state()
{
    // Leaked singleton (mirrors obs): worker threads may still store
    // during static destruction.
    static auto *s = new State;
    return *s;
}

/** FITS_CACHE_DIR arms the store at load time. */
struct EnvInit
{
    EnvInit()
    {
        const char *env = std::getenv("FITS_CACHE_DIR");
        if (env == nullptr || *env == '\0')
            return;
        State &s = state();
        const std::lock_guard<std::mutex> lock(s.mutex);
        s.dir = env;
    }
};

const EnvInit g_envInit;

std::string
directory()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.dir;
}

std::string
pathIn(const std::string &dir, std::string_view kind, std::uint64_t key1,
       std::uint64_t key2)
{
    return dir + "/" + std::string(kind) +
           support::format("-%016llx%016llx.fcb",
                           static_cast<unsigned long long>(key1),
                           static_cast<unsigned long long>(key2));
}

// ---- entries ------------------------------------------------------

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

    std::uint8_t header[kDiskHeaderBytes];
    if (fileSize < kDiskHeaderBytes)
        return corrupt();
    if (!in.read(reinterpret_cast<char *>(header), kDiskHeaderBytes))
        return std::nullopt;
    // Every read below fits the fixed-size header.
    bin::ByteReader fields(header, kDiskHeaderBytes);
    std::uint32_t version = 0;
    std::uint64_t entryKey1 = 0, entryKey2 = 0, size = 0, checksum = 0;
    fields.seek(4);
    fields.u32(version);
    fields.u64(entryKey1);
    fields.u64(entryKey2);
    fields.u64(size);
    fields.u64(checksum);
    if (std::memcmp(header, kDiskMagic, 4) != 0 ||
        version != kDiskFormatVersion || entryKey1 != key1 ||
        entryKey2 != key2 || fileSize - kDiskHeaderBytes != size)
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

    bin::StringByteWriter fields;
    for (const char m : kDiskMagic)
        fields.u8(static_cast<std::uint8_t>(m));
    fields.u32(kDiskFormatVersion);
    fields.u64(key1);
    fields.u64(key2);
    fields.u64(payload.size());
    fields.u64(support::hash64(payload.data(), payload.size()));
    const std::string header = fields.take();

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
    s.dir = options.dir;
}

void
clearMemory()
{
}

Stats
stats()
{
    Stats out;
    const Counters &c = counters();
    out.misses = c.misses.load(std::memory_order_relaxed);
    out.diskHits = c.diskHits.load(std::memory_order_relaxed);
    out.diskMisses = c.diskMisses.load(std::memory_order_relaxed);
    out.diskCorrupt = c.diskCorrupt.load(std::memory_order_relaxed);
    return out;
}

void
resetStats()
{
    Counters &c = counters();
    c.misses.store(0, std::memory_order_relaxed);
    c.diskHits.store(0, std::memory_order_relaxed);
    c.diskMisses.store(0, std::memory_order_relaxed);
    c.diskCorrupt.store(0, std::memory_order_relaxed);
}

bool
diskUsable()
{
    return !directory().empty();
}

std::shared_ptr<const std::vector<analysis::FunctionAnalysis>>
functionAnalyses(const std::shared_ptr<const bin::BinaryImage> &image,
                 const analysis::UcseConfig &config)
{
    counters().misses.fetch_add(1, std::memory_order_relaxed);
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
    const std::string dir = directory();
    return dir.empty() ? std::string{} : pathIn(dir, kind, key1, key2);
}

std::optional<std::string>
fetchBlob(std::string_view kind, std::uint64_t key1,
          std::uint64_t key2)
{
    const std::string dir = directory();
    if (dir.empty())
        return std::nullopt;
    auto payload = readDiskEntry(pathIn(dir, kind, key1, key2), key1, key2);
    bumpDisk(payload.has_value());
    return payload;
}

void
storeBlob(std::string_view kind, std::uint64_t key1,
          std::uint64_t key2, std::string_view payload)
{
    const std::string dir = directory();
    if (!dir.empty())
        writeDiskEntry(dir, pathIn(dir, kind, key1, key2), key1, key2,
                       payload);
}

} // namespace fits::cache
