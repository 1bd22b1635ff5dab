#include "pca.hh"

#include <algorithm>
#include <cassert>

namespace fits::ml {

std::vector<double>
PcaModel::transform(std::span<const double> rows) const
{
    const std::size_t width = mean.size();
    assert(width > 0 && rows.size() % width == 0);
    const std::size_t k = numComponents();
    std::vector<double> out;
    out.reserve(rows.size() / width * k);
    Vec centered(width);
    for (std::size_t i = 0; i < rows.size(); i += width) {
        for (std::size_t c = 0; c < width; ++c)
            centered[c] = rows[i + c] - mean[c];
        for (std::size_t j = 0; j < k; ++j) {
            out.push_back(dot(
                std::span(components).subspan(j * width, width), centered));
        }
    }
    return out;
}

PcaModel
fitPca(std::span<const double> rows, std::size_t width,
       std::size_t numComponents, std::size_t iterations)
{
    PcaModel model;
    model.mean = columnMean(rows, width);
    const Vec &mean = model.mean;
    numComponents = std::min(numComponents, width);
    if (rows.empty())
        return model;

    // Covariance matrix (width x width), row-major.
    std::vector<double> cov(width * width, 0.0);
    for (std::size_t r = 0; r < rows.size(); r += width) {
        for (std::size_t i = 0; i < width; ++i) {
            const double di = rows[r + i] - mean[i];
            for (std::size_t j = 0; j < width; ++j)
                cov[i * width + j] += di * (rows[r + j] - mean[j]);
        }
    }
    for (auto &v : cov)
        v /= static_cast<double>(rows.size() / width);

    for (std::size_t k = 0; k < numComponents; ++k) {
        // Power iteration from a deterministic start vector.
        Vec v(width, 0.0);
        v[k % width] = 1.0;
        double eigen = 0.0;
        for (std::size_t it = 0; it < iterations; ++it) {
            Vec next(width, 0.0);
            for (std::size_t i = 0; i < width; ++i) {
                for (std::size_t j = 0; j < width; ++j)
                    next[i] += cov[i * width + j] * v[j];
            }
            const double len = norm(next);
            if (len < 1e-12) {
                // Exhausted variance: remaining components are zero.
                v.assign(width, 0.0);
                eigen = 0.0;
                break;
            }
            for (auto &x : next)
                x /= len;
            v = next;
            eigen = len;
        }
        model.components.insert(model.components.end(), v.begin(),
                                v.end());

        // Deflate: cov -= eigen * v v^T.
        for (std::size_t i = 0; i < width; ++i) {
            for (std::size_t j = 0; j < width; ++j)
                cov[i * width + j] -= eigen * v[i] * v[j];
        }
    }

    return model;
}

} // namespace fits::ml
