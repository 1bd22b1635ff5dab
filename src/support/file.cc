#include "file.hh"

#include <filesystem>
#include <fstream>

namespace fits::support {

std::optional<std::vector<std::uint8_t>>
readFile(const std::string &path)
{
    // file_size fails for directories and other non-regular files,
    // whose seek-to-end size would be meaningless.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec)
        return std::nullopt;
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (!in || !in.read(reinterpret_cast<char *>(bytes.data()),
                        static_cast<std::streamsize>(size)))
        return std::nullopt;
    return bytes;
}

} // namespace fits::support
