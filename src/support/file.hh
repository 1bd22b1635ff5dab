#ifndef FITS_SUPPORT_FILE_HH_
#define FITS_SUPPORT_FILE_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fits::support {

/** The exact bytes of a regular file, read with one sized read;
 * nullopt when `path` is missing, not a regular file, or unreadable.
 * An empty file gives an empty vector. */
std::optional<std::vector<std::uint8_t>> readFile(const std::string &path);

} // namespace fits::support

#endif // FITS_SUPPORT_FILE_HH_
