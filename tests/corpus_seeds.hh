/** @file The standard corpus under a workload seed, for the oracle
 * tests that compare a kernel with its reference implementation on
 * more than the built-in corpus. */

#ifndef FITS_TESTS_CORPUS_SEEDS_HH_
#define FITS_TESTS_CORPUS_SEEDS_HH_

#include <cstdint>
#include <vector>

#include "synth/firmware_gen.hh"
#include "synth/httpd_gen.hh"

namespace fits::test_support {

/**
 * The 59 standard specs; a non-zero seed re-seeds every sample the way
 * corpusbench/corpus_trace.cc does: each keeps the function count of
 * its network binary and gets a splitmix64 mix of its own seed and the
 * workload seed.
 */
inline std::vector<synth::SampleSpec>
seededSpecs(std::uint64_t seed)
{
    auto specs = synth::standardDataset();
    if (seed == 0)
        return specs;
    for (auto &spec : specs) {
        if (spec.failure !=
            synth::SampleSpec::FailureMode::NoNetworkBinary) {
            const int size = static_cast<int>(
                synth::generateHttpd(spec).image.program.size());
            spec.profile.minCustomFns = size;
            spec.profile.maxCustomFns = size;
        }
        std::uint64_t z = spec.seed ^ (seed * 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        spec.seed = z ^ (z >> 31);
    }
    return specs;
}

} // namespace fits::test_support

#endif // FITS_TESTS_CORPUS_SEEDS_HH_
