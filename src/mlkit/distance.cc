#include "distance.hh"

#include <cassert>
#include <cmath>

namespace fits::ml {

double
cosineSimilarity(std::span<const double> a,
                 std::span<const double> b)
{
    const double na = norm(a);
    const double nb = norm(b);
    if (na == 0.0 || nb == 0.0)
        return 0.0;
    return dot(a, b) / (na * nb);
}

double
euclideanDistance(std::span<const double> a,
                  std::span<const double> b)
{
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        s += d * d;
    }
    return std::sqrt(s);
}

double
manhattanDistance(std::span<const double> a,
                  std::span<const double> b)
{
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += std::fabs(a[i] - b[i]);
    return s;
}

double
pearsonCorrelation(std::span<const double> a,
                   std::span<const double> b)
{
    assert(a.size() == b.size());
    const std::size_t n = a.size();
    if (n == 0)
        return 0.0;
    double meanA = 0.0, meanB = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        meanA += a[i];
        meanB += b[i];
    }
    meanA /= static_cast<double>(n);
    meanB /= static_cast<double>(n);
    double cov = 0.0, varA = 0.0, varB = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = a[i] - meanA;
        const double db = b[i] - meanB;
        cov += da * db;
        varA += da * da;
        varB += db * db;
    }
    if (varA == 0.0 || varB == 0.0)
        return 0.0;
    return cov / std::sqrt(varA * varB);
}

double
distance(Metric metric, std::span<const double> a,
         std::span<const double> b)
{
    switch (metric) {
      case Metric::Cosine:    return 1.0 - cosineSimilarity(a, b);
      case Metric::Euclidean: return euclideanDistance(a, b);
      case Metric::Manhattan: return manhattanDistance(a, b);
      case Metric::Pearson:   return 1.0 - pearsonCorrelation(a, b);
    }
    return 0.0;
}

double
similarity(Metric metric, std::span<const double> a,
           std::span<const double> b)
{
    switch (metric) {
      case Metric::Cosine:
        return cosineSimilarity(a, b);
      case Metric::Pearson:
        return pearsonCorrelation(a, b);
      case Metric::Euclidean:
        return 1.0 / (1.0 + euclideanDistance(a, b));
      case Metric::Manhattan:
        return 1.0 / (1.0 + manhattanDistance(a, b));
    }
    return 0.0;
}

} // namespace fits::ml
