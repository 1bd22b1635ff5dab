#include "metrics.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace fits::obs {

namespace {

std::atomic<bool> g_enabled{false};

/** Destination of the atexit auto-dump ("" = none). */
std::string &
autoExportPath()
{
    static std::string path;
    return path;
}

void
dumpAtExit()
{
    const std::string &path = autoExportPath();
    if (!path.empty())
        Registry::instance().exportToFile(path);
}

/** Parse FITS_METRICS once at load time (see header contract). */
struct EnvInit
{
    EnvInit()
    {
        const char *env = std::getenv("FITS_METRICS");
        if (env == nullptr || *env == '\0')
            return;
        if (std::strcmp(env, "0") == 0 ||
            std::strcmp(env, "off") == 0) {
            return;
        }
        g_enabled.store(true, std::memory_order_relaxed);
        if (std::strcmp(env, "1") != 0 &&
            std::strcmp(env, "on") != 0 &&
            std::strcmp(env, "true") != 0) {
            autoExportPath() = env;
            std::atexit(dumpAtExit);
        }
    }
};

const EnvInit g_envInit;

/** Per-thread span nesting stack (full paths). */
thread_local std::vector<std::string> t_spanStack;

void
appendJsonNumber(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += "0"; // JSON has no NaN/Inf; clamp rather than corrupt
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    out += buf;
}

} // namespace

void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

// ---- Histogram -------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1)
{
}

void
Histogram::observe(double value)
{
    std::size_t bucket = bounds_.size(); // overflow bucket
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            bucket = i;
            break;
        }
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumMicro_.fetch_add(static_cast<std::int64_t>(value * 1e6),
                        std::memory_order_relaxed);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i)
        out[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumMicro_.store(0, std::memory_order_relaxed);
}

void
TimerStat::reset()
{
    count_.store(0, std::memory_order_relaxed);
    totalNs_.store(0, std::memory_order_relaxed);
    maxNs_.store(0, std::memory_order_relaxed);
}

// ---- Registry --------------------------------------------------------

Registry &
Registry::instance()
{
    // Intentionally leaked: the FITS_METRICS atexit dump (and any
    // static-storage ScopedTimer) may touch the registry after local
    // statics have been destroyed, so it must never be torn down.
    static Registry *registry = new Registry;
    return *registry;
}

const std::vector<double> &
Registry::defaultTimeBucketsMs()
{
    static const std::vector<double> buckets = {
        0.1, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
        5000};
    return buckets;
}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.try_emplace(std::string(name)).first;
    return it->second;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.try_emplace(std::string(name)).first;
    return it->second;
}

Histogram &
Registry::histogram(std::string_view name,
                    const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(std::string(name)),
                          std::forward_as_tuple(bounds))
                 .first;
    }
    return it->second;
}

TimerStat &
Registry::timer(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = timers_.find(name);
    if (it == timers_.end())
        it = timers_.try_emplace(std::string(name)).first;
    return it->second;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        snap.counters[name] = counter.value();
    for (const auto &[name, gauge] : gauges_)
        snap.gauges[name] = gauge.value();
    for (const auto &[name, histogram] : histograms_) {
        Snapshot::HistogramView view;
        view.bounds = histogram.bounds();
        view.counts = histogram.bucketCounts();
        view.count = histogram.count();
        view.sum = histogram.sum();
        snap.histograms[name] = std::move(view);
    }
    for (const auto &[name, timer] : timers_) {
        Snapshot::TimerView view;
        view.count = timer.count();
        view.totalMs = timer.totalMs();
        view.maxMs = timer.maxMs();
        snap.timers[name] = std::move(view);
    }
    return snap;
}

std::string
Registry::toJson() const
{
    const Snapshot snap = snapshot();
    std::string out;
    out.reserve(1024);
    out += "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : snap.counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        char buf[32];
        std::snprintf(buf, sizeof buf, ": %" PRIu64, value);
        out += buf;
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : snap.gauges) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": ";
        appendJsonNumber(out, value);
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, view] : snap.histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": {\"bounds\": [";
        for (std::size_t i = 0; i < view.bounds.size(); ++i) {
            if (i > 0)
                out += ", ";
            appendJsonNumber(out, view.bounds[i]);
        }
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < view.counts.size(); ++i) {
            if (i > 0)
                out += ", ";
            char buf[32];
            std::snprintf(buf, sizeof buf, "%" PRIu64,
                          view.counts[i]);
            out += buf;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "], \"count\": %" PRIu64,
                      view.count);
        out += buf;
        out += ", \"sum\": ";
        appendJsonNumber(out, view.sum);
        out += "}";
    }
    out += "\n  },\n  \"timers\": {";
    first = true;
    for (const auto &[name, view] : snap.timers) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        char buf[64];
        std::snprintf(buf, sizeof buf, ": {\"count\": %" PRIu64,
                      view.count);
        out += buf;
        out += ", \"total_ms\": ";
        appendJsonNumber(out, view.totalMs);
        out += ", \"max_ms\": ";
        appendJsonNumber(out, view.maxMs);
        out += "}";
    }
    out += "\n  }\n}\n";
    return out;
}

bool
Registry::exportToFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson();
    return static_cast<bool>(out);
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter.reset();
    for (auto &[name, gauge] : gauges_)
        gauge.reset();
    for (auto &[name, histogram] : histograms_)
        histogram.reset();
    for (auto &[name, timer] : timers_)
        timer.reset();
}

// ---- One-shot helpers ------------------------------------------------

void
addCounter(std::string_view name, std::uint64_t delta)
{
    if (!enabled())
        return;
    Registry::instance().counter(name).add(delta);
}

void
setGauge(std::string_view name, double value)
{
    if (!enabled())
        return;
    Registry::instance().gauge(name).set(value);
}

void
observe(std::string_view name, double value)
{
    if (!enabled())
        return;
    Registry::instance().histogram(name).observe(value);
}

// ---- ScopedTimer -----------------------------------------------------

ScopedTimer::ScopedTimer(std::string name)
    : start_(std::chrono::steady_clock::now())
{
    if (enabled()) {
        if (!t_spanStack.empty())
            path_ = t_spanStack.back() + "/" + name;
        else
            path_ = std::move(name);
        t_spanStack.push_back(path_);
        pushed_ = true;
    } else {
        path_ = std::move(name);
    }
}

ScopedTimer::~ScopedTimer()
{
    if (!stopped_)
        stopMs();
}

double
ScopedTimer::elapsedMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

double
ScopedTimer::stopMs()
{
    if (!stopped_) {
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        stopped_ = true;
        stoppedMs_ =
            std::chrono::duration<double, std::milli>(elapsed)
                .count();
        if (pushed_) {
            // Pop this span (and anything a misnested child left).
            while (!t_spanStack.empty() &&
                   t_spanStack.back() != path_) {
                t_spanStack.pop_back();
            }
            if (!t_spanStack.empty())
                t_spanStack.pop_back();
            Registry::instance().timer(path_).record(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(elapsed)
                        .count()));
        }
    }
    return stoppedMs_;
}

} // namespace fits::obs
