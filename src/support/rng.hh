#ifndef FITS_SUPPORT_RNG_HH_
#define FITS_SUPPORT_RNG_HH_

#include <cstdint>
#include <vector>

namespace fits::support {

/**
 * Deterministic pseudo-random number generator (xoshiro256** seeded via
 * splitmix64).
 *
 * Every stochastic component in this repository draws from an explicitly
 * seeded Rng so that the synthetic firmware corpus, the planted ground
 * truth, and therefore every experiment table are bit-for-bit reproducible
 * across runs and machines. std::mt19937 is avoided because distribution
 * implementations differ across standard libraries.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** True with probability p (clamped to [0, 1]). */
    bool chance(double p);

    /** Uniformly chosen index in [0, size). Requires size > 0. */
    std::size_t index(std::size_t size);

    /** Uniformly chosen element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &items)
    {
        return items[index(items.size())];
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        if (items.size() < 2)
            return;
        for (std::size_t i = items.size() - 1; i > 0; --i) {
            std::size_t j = index(i + 1);
            std::swap(items[i], items[j]);
        }
    }

  private:
    std::uint64_t state_[4];
};

/** splitmix64 step; exposed for seed derivation in tests. */
std::uint64_t splitmix64(std::uint64_t &state);

} // namespace fits::support

#endif // FITS_SUPPORT_RNG_HH_
