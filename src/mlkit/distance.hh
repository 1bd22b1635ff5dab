#ifndef FITS_MLKIT_DISTANCE_HH_
#define FITS_MLKIT_DISTANCE_HH_

#include "mlkit/vector.hh"

namespace fits::ml {

/** Distance/similarity metrics compared in Table 8 of the paper. */
enum class Metric { Cosine, Euclidean, Manhattan, Pearson };

const char *metricName(Metric metric);

/** Cosine similarity in [-1, 1]; 0 if either vector is zero. */
double cosineSimilarity(std::span<const double> a,
                        std::span<const double> b);

/** Cosine distance: 1 - cosineSimilarity. */
double cosineDistance(std::span<const double> a,
                      std::span<const double> b);

double euclideanDistance(std::span<const double> a,
                         std::span<const double> b);

double manhattanDistance(std::span<const double> a,
                         std::span<const double> b);

/** Pearson correlation coefficient; 0 for constant vectors. */
double pearsonCorrelation(std::span<const double> a,
                          std::span<const double> b);

/** Distance under the given metric (Pearson mapped to 1 - r). */
double distance(Metric metric, std::span<const double> a,
                std::span<const double> b);

/**
 * Similarity in [0, 1]-ish under the given metric, used for scoring:
 * Cosine -> cosine similarity; Pearson -> r; Euclidean/Manhattan ->
 * 1 / (1 + d), the standard monotone inversion.
 */
double similarity(Metric metric, std::span<const double> a,
                  std::span<const double> b);

} // namespace fits::ml

#endif // FITS_MLKIT_DISTANCE_HH_
