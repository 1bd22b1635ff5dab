#ifndef FITS_CORE_BEHAVIOR_IO_HH_
#define FITS_CORE_BEHAVIOR_IO_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/behavior.hh"
#include "firmware/fwimg.hh"

namespace fits::core {

/**
 * The whole-sample behavior product the analysis cache persists: what
 * stages 1-2 of the pipeline compute from raw firmware bytes, minus the
 * analysis chain (which taint engines need live and is therefore never
 * served from cache). A warm hit on this bundle lets `fits corpus` and
 * `fits rank` skip unpack, select, lift, UCSE, and BFV extraction and
 * jump straight to inference.
 */
struct BehaviorBundle
{
    fw::ImageInfo imageInfo;
    std::string binaryName;
    std::uint64_t numFunctions = 0;
    std::uint64_t binaryBytes = 0;
    BehaviorRepr behavior;
};

/**
 * Serialize to the versioned cache payload. Fixed-width little-endian
 * integers, length-prefixed strings, and doubles stored by bit pattern
 * — decode(encode(b)) reproduces every BFV and comparison vector
 * bit-for-bit, which the bit-identity guarantee of the cache rests on.
 */
std::string encodeBehaviorBundle(const BehaviorBundle &bundle);

/** Parse a payload; nullopt on any truncation, bad tag, or version
 * skew (the cache treats that as a miss). */
std::optional<BehaviorBundle> decodeBehaviorBundle(
    std::string_view payload);

/**
 * Fingerprint of every configuration knob that shapes a BehaviorRepr,
 * plus the serialization format version. Used as the second cache key
 * next to the firmware content hash. The UCSE deadline is excluded
 * because deadline-bearing runs never consult the cache.
 */
std::uint64_t behaviorConfigFingerprint(
    const BehaviorAnalyzer::Config &config);

} // namespace fits::core

#endif // FITS_CORE_BEHAVIOR_IO_HH_
