#ifndef FITS_SUPPORT_DEADLINE_HH_
#define FITS_SUPPORT_DEADLINE_HH_

#include <chrono>

namespace fits::support {

/**
 * Cooperative cancellation point: a wall-clock deadline checked by the
 * long-running analyses (UCSE exploration, reaching definitions, both
 * taint engines). A default-constructed Deadline never expires, so all
 * default paths behave exactly as before; only callers that arm a
 * budget pay the (periodic) clock read.
 *
 * Deadlines are plain values — copy them into worker configs freely.
 * Loops should check `expiredCoarse(counter)` rather than `expired()`
 * directly so the steady_clock read is amortized over ~256 iterations.
 */
class Deadline
{
  public:
    /** Never expires. */
    Deadline() = default;

    static Deadline
    never()
    {
        return Deadline();
    }

    /** Expires `ms` milliseconds from now; ms <= 0 means "already
     * expired" (useful for tests). A budget past about a century
     * (including infinity and NaN) saturates at time_point::max()
     * instead of overflowing the clock's integer ticks. */
    static Deadline
    afterMs(double ms)
    {
        using Clock = std::chrono::steady_clock;
        constexpr double kSaturateMs = 3.2e12;
        Deadline d;
        d.active_ = true;
        const auto now = Clock::now();
        if (ms <= 0.0) {
            d.at_ = now;
        } else if (ms < kSaturateMs) {
            const std::chrono::duration<double, std::milli> budget(ms);
            d.at_ = now + std::chrono::duration_cast<Clock::duration>(budget);
        } else {
            d.at_ = Clock::time_point::max();
        }
        return d;
    }

    bool active() const { return active_; }

    /** One clock read; always false when inactive. */
    bool
    expired() const
    {
        return active_ && std::chrono::steady_clock::now() >= at_;
    }

    /** Amortized check for hot loops: reads the clock only every 256th
     * call (per counter). Pass the loop's own step counter. */
    bool
    expiredCoarse(std::size_t counter) const
    {
        return active_ && (counter & 0xff) == 0 && expired();
    }

    /** Milliseconds until expiry; negative once expired. Meaningless
     * (a large positive number) when inactive. */
    double
    remainingMs() const
    {
        if (!active_)
            return 1e18;
        return std::chrono::duration<double, std::milli>(
                   at_ - std::chrono::steady_clock::now())
            .count();
    }

  private:
    bool active_ = false;
    std::chrono::steady_clock::time_point at_{};
};

/**
 * The `FITS_STAGE_TIMEOUT_MS` environment knob: default per-stage
 * budget in milliseconds applied by PipelineConfig (and the taint
 * engine configs) when no explicit budget is set. 0 (or unset,
 * unparsable or not finite) means "no deadline" — the exact pre-knob
 * behavior. Parsed once at first use.
 */
double envStageTimeoutMs();

} // namespace fits::support

#endif // FITS_SUPPORT_DEADLINE_HH_
