#ifndef FITS_SUPPORT_LOGGING_HH_
#define FITS_SUPPORT_LOGGING_HH_

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>

namespace fits::support {

/** Severity levels in increasing order of importance. */
enum class LogLevel { Debug, Info, Warn, Error };

/**
 * Minimal leveled logger writing to stderr.
 *
 * The library is silent by default (Warn threshold) so that bench binaries
 * can print clean tables; examples raise the level to Info for narration.
 *
 * Thread-safe: the threshold is atomic and each record is rendered into
 * one buffer and emitted as a single write under a mutex, so concurrent
 * workers never interleave characters within a line.
 */
class Logger
{
  public:
    /** Process-wide logger instance. */
    static Logger &instance();

    /** Set the minimum level that is emitted. */
    void
    setLevel(LogLevel level)
    {
        level_.store(level, std::memory_order_relaxed);
    }

    LogLevel
    level() const
    {
        return level_.load(std::memory_order_relaxed);
    }

    /** Emit one line if level passes the threshold. */
    void log(LogLevel level, std::string_view component,
             std::string_view message);

  private:
    Logger() = default;
    std::atomic<LogLevel> level_{LogLevel::Warn};
    std::mutex writeMutex_;
};

/** Convenience wrappers; component names the emitting subsystem. */
void logDebug(std::string_view component, std::string_view message);
void logInfo(std::string_view component, std::string_view message);
void logWarn(std::string_view component, std::string_view message);

} // namespace fits::support

#endif // FITS_SUPPORT_LOGGING_HH_
