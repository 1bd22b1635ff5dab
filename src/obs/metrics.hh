#ifndef FITS_OBS_METRICS_HH_
#define FITS_OBS_METRICS_HH_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fits::obs {

/**
 * Process-wide observability: a metrics registry (counters, gauges,
 * fixed-bucket histograms, span timers), RAII stage timers that nest,
 * and a JSON snapshot exporter.
 *
 * Design constraints, relied on throughout the pipeline:
 *  - *Passive:* metrics never feed back into analysis results, so
 *    inference and taint outputs are bit-identical with collection on
 *    or off.
 *  - *Near-zero overhead when disabled:* every recording entry point
 *    first checks one relaxed atomic flag and returns; no locks, no
 *    allocation, no name formatting on the disabled path.
 *  - *Thread-safe when enabled:* instruments are plain atomics that
 *    workers update concurrently; the registry mutex guards only the
 *    name -> instrument maps (node-based, so references handed out
 *    stay valid forever) and is never held while a value is updated.
 *  - *Snapshot-consistent enough:* snapshot() reads each atomic once;
 *    concurrent writers may land between reads, which is fine for
 *    monotone counters and timing aggregates.
 *
 * The `FITS_METRICS` environment variable arms collection without code
 * changes: "1"/"on"/"true" enables it, "0"/"off"/empty leaves it
 * disabled, and any other value enables it AND dumps a JSON snapshot
 * to that path at process exit.
 */

/** True when metric collection is armed (FITS_METRICS / setEnabled). */
bool enabled();

/** Arm or disarm collection at runtime (tests, --metrics-out). */
void setEnabled(bool on);

/** Monotone counter. */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins scalar. */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations <= bounds[i];
 * one implicit overflow bucket counts the rest. Bounds are fixed at
 * first registration; sum is kept in micro-units so concurrent
 * observe() needs only integer fetch_add.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double value);

    const std::vector<double> &bounds() const { return bounds_; }
    std::vector<std::uint64_t> bucketCounts() const;

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double
    sum() const
    {
        return static_cast<double>(
                   sumMicro_.load(std::memory_order_relaxed)) /
               1e6;
    }

    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::int64_t> sumMicro_{0};
};

/** Aggregate of one named span: completions, total and peak time. */
class TimerStat
{
  public:
    void
    record(std::uint64_t ns)
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        totalNs_.fetch_add(ns, std::memory_order_relaxed);
        std::uint64_t prev = maxNs_.load(std::memory_order_relaxed);
        while (prev < ns &&
               !maxNs_.compare_exchange_weak(
                   prev, ns, std::memory_order_relaxed)) {
        }
    }

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double
    totalMs() const
    {
        return static_cast<double>(
                   totalNs_.load(std::memory_order_relaxed)) /
               1e6;
    }

    double
    maxMs() const
    {
        return static_cast<double>(
                   maxNs_.load(std::memory_order_relaxed)) /
               1e6;
    }

    void reset();

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> totalNs_{0};
    std::atomic<std::uint64_t> maxNs_{0};
};

/** Point-in-time copy of every registered instrument. */
struct Snapshot
{
    struct HistogramView
    {
        std::vector<double> bounds;
        std::vector<std::uint64_t> counts; ///< bounds.size() + 1
        std::uint64_t count = 0;
        double sum = 0.0;
    };

    struct TimerView
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
        double maxMs = 0.0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramView> histograms;
    std::map<std::string, TimerView> timers;
};

/** The process-wide instrument registry. */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create; returned references stay valid forever. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name,
                         const std::vector<double> &bounds =
                             defaultTimeBucketsMs());
    TimerStat &timer(std::string_view name);

    Snapshot snapshot() const;

    /** Full registry state as a JSON document. */
    std::string toJson() const;

    /** Write toJson() to a file; false on I/O failure. */
    bool exportToFile(const std::string &path) const;

    /** Zero every instrument (names stay registered). Test support. */
    void reset();

    /** Millisecond-scale latency buckets shared by time histograms. */
    static const std::vector<double> &defaultTimeBucketsMs();

  private:
    Registry() = default;

    mutable std::mutex mutex_;
    // Node-based maps: inserting never moves existing instruments.
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
    std::map<std::string, TimerStat, std::less<>> timers_;
};

/** One-shot helpers; no-ops (one atomic load) while disabled. */
void addCounter(std::string_view name, std::uint64_t delta = 1);
void setGauge(std::string_view name, double value);
void observe(std::string_view name, double value);

/** Append `text` as a quoted JSON string: quote, backslash and every
 * control character are escaped. */
void appendJsonString(std::string &out, std::string_view text);

/**
 * RAII span timer. Always measures wall time (so callers can keep
 * plain-data timing fields as views over the same measurement), but
 * records into the registry only while collection is enabled.
 *
 * Spans nest per thread: a timer created while another is live on the
 * same thread records under "<parent-path>/<name>". The pipeline uses
 * this for its pipeline -> stage -> sub-stage hierarchy.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::string name);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Stop now, record once, and return the elapsed milliseconds.
     * Further calls return the first measurement unchanged. */
    double stopMs();

    /** The full (nesting-resolved) span path. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::chrono::steady_clock::time_point start_;
    double stoppedMs_ = 0.0;
    bool stopped_ = false;
    bool pushed_ = false;
};

} // namespace fits::obs

#endif // FITS_OBS_METRICS_HH_
