#include "vector.hh"

#include <cassert>
#include <cmath>

namespace fits::ml {

double
dot(std::span<const double> a, std::span<const double> b)
{
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

double
norm(std::span<const double> a)
{
    return std::sqrt(dot(a, a));
}

Vec
columnMean(std::span<const double> rows, std::size_t width)
{
    assert(width > 0 && rows.size() % width == 0);
    Vec out(width, 0.0);
    const std::size_t n = rows.size() / width;
    if (n == 0)
        return out;
    for (std::size_t i = 0; i < rows.size(); i += width) {
        for (std::size_t c = 0; c < width; ++c)
            out[c] += rows[i + c];
    }
    for (auto &v : out)
        v /= static_cast<double>(n);
    return out;
}

std::vector<double>
flatten(const Matrix &m)
{
    std::vector<double> values;
    values.reserve(m.size() * columns(m));
    for (const auto &row : m)
        values.insert(values.end(), row.begin(), row.end());
    return values;
}

std::size_t
columns(const Matrix &m)
{
    return m.empty() ? 0 : m.front().size();
}

Vec
columnAbsMax(const Matrix &m)
{
    Vec out(columns(m), 0.0);
    for (const auto &row : m) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out[c] = std::max(out[c], std::fabs(row[c]));
    }
    return out;
}

} // namespace fits::ml
