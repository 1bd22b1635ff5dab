#ifndef FITS_SYNTH_FIRMWARE_GEN_HH_
#define FITS_SYNTH_FIRMWARE_GEN_HH_

#include <cstdint>
#include <vector>

#include "synth/httpd_gen.hh"
#include "synth/profiles.hh"

namespace fits::synth {

/** One fully generated firmware sample. */
struct GeneratedFirmware
{
    SampleSpec spec;
    /** The packed FWIMG bytes (what the pipeline consumes). */
    std::vector<std::uint8_t> bytes;
    /** Ground truth of the network binary. */
    GroundTruth truth;
};

/**
 * Generate one complete firmware sample: network binary + libc + config
 * and web assets, packed into an FWIMG image with the profile's
 * encoding and boot padding. Failure modes produce images that fail at
 * the right pipeline stage (opaque crypto, corrupt payload, or a file
 * system without a network binary).
 */
GeneratedFirmware generateFirmware(const SampleSpec &spec);

} // namespace fits::synth

#endif // FITS_SYNTH_FIRMWARE_GEN_HH_
