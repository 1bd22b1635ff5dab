#include "scaling.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fits::ml {

void
standardize(std::span<double> rows, std::size_t width)
{
    const Vec mean = columnMean(rows, width);
    Vec stddev(width, 0.0);
    for (std::size_t i = 0; i < rows.size(); i += width) {
        for (std::size_t c = 0; c < width; ++c) {
            const double d = rows[i + c] - mean[c];
            stddev[c] += d * d;
        }
    }
    const double n = static_cast<double>(rows.size() / width);
    for (auto &v : stddev)
        v = std::sqrt(v / n);
    for (std::size_t i = 0; i < rows.size(); i += width) {
        for (std::size_t c = 0; c < width; ++c) {
            rows[i + c] = stddev[c] != 0.0
                              ? (rows[i + c] - mean[c]) / stddev[c]
                              : 0.0;
        }
    }
}

void
minMaxScale(std::span<double> rows, std::size_t width)
{
    assert(width > 0 && rows.size() % width == 0);
    if (rows.empty())
        return;
    Vec lo(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(width));
    Vec hi = lo;
    for (std::size_t i = 0; i < rows.size(); i += width) {
        for (std::size_t c = 0; c < width; ++c) {
            lo[c] = std::min(lo[c], rows[i + c]);
            hi[c] = std::max(hi[c], rows[i + c]);
        }
    }
    for (std::size_t i = 0; i < rows.size(); i += width) {
        for (std::size_t c = 0; c < width; ++c) {
            const double span = hi[c] - lo[c];
            rows[i + c] = span != 0.0 ? (rows[i + c] - lo[c]) / span : 0.0;
        }
    }
}

} // namespace fits::ml
