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

std::vector<double>
flatten(const Matrix &m)
{
    std::vector<double> values;
    values.reserve(m.size() * columns(m));
    for (const auto &row : m)
        values.insert(values.end(), row.begin(), row.end());
    return values;
}

Matrix
toMatrix(std::span<const double> values, std::size_t width)
{
    assert(width > 0 && values.size() % width == 0);
    Matrix m;
    m.reserve(values.size() / width);
    for (std::size_t i = 0; i < values.size(); i += width)
        m.emplace_back(values.begin() + i, values.begin() + i + width);
    return m;
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

Vec
columnMean(const Matrix &m)
{
    Vec out(columns(m), 0.0);
    if (m.empty())
        return out;
    for (const auto &row : m) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out[c] += row[c];
    }
    for (auto &v : out)
        v /= static_cast<double>(m.size());
    return out;
}

Vec
columnStddev(const Matrix &m, const Vec &mean)
{
    Vec out(columns(m), 0.0);
    if (m.empty())
        return out;
    for (const auto &row : m) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            const double d = row[c] - mean[c];
            out[c] += d * d;
        }
    }
    for (auto &v : out)
        v = std::sqrt(v / static_cast<double>(m.size()));
    return out;
}

} // namespace fits::ml
