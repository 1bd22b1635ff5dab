#ifndef FITS_FIRMWARE_SELECT_HH_
#define FITS_FIRMWARE_SELECT_HH_

#include <memory>
#include <string>
#include <vector>

#include "binary/image.hh"
#include "firmware/filesystem.hh"
#include "support/result.hh"

namespace fits::fw {

/**
 * The unit FITS analyzes: the network-facing binary plus its resolved
 * dependency libraries (found via the DT_NEEDED-style list). Each
 * sample lifts its own images; they are immutable and held by
 * shared_ptr, so whoever takes the target (a core::PipelineArtifact)
 * keeps them alive for the LinkedProgram built over them.
 */
struct AnalysisTarget
{
    std::shared_ptr<const bin::BinaryImage> main;
    std::vector<std::shared_ptr<const bin::BinaryImage>> libraries;
    /** Dependencies that could not be found in the file system. */
    std::vector<std::string> missingLibraries;
};

/**
 * Import names that indicate a binary exports network services. Used by
 * the PIE-style selector: network communication is the major source of
 * cyber threats, so these binaries are the analysis targets.
 */
const std::vector<std::string> &networkImportNames();

/**
 * Network-facing score of a binary: weighted count of network imports
 * (receive-style functions count double, since a binary that only sends
 * is not an input parser).
 */
int networkScore(const bin::BinaryImage &image);

/**
 * Select the network binary with the highest score from the file
 * system's executables and resolve its dependency libraries. Fails when
 * no executable parses as FBIN or none imports the network interface —
 * the pre-processing failure mode of §4.2.
 */
support::Result<AnalysisTarget> selectAnalysisTarget(
    const Filesystem &filesystem);

} // namespace fits::fw

#endif // FITS_FIRMWARE_SELECT_HH_
