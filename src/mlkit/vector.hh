#ifndef FITS_MLKIT_VECTOR_HH_
#define FITS_MLKIT_VECTOR_HH_

#include <cstddef>
#include <span>
#include <vector>

namespace fits::ml {

/** A feature vector: one row of a feature matrix. */
using Vec = std::vector<double>;

/** A row-major feature matrix; all rows must share one dimension. */
using Matrix = std::vector<Vec>;

/*
 * The vector kernels read rows as std::span<const double>: a Vec
 * converts implicitly, and row i of a row-major block is the span of
 * the `width` doubles at `values[i * width]`. Inference keeps each
 * feature matrix in one such block, one allocation.
 */

/** Dot product; rows must have equal dimension. */
double dot(std::span<const double> a, std::span<const double> b);

/** Euclidean (L2) norm. */
double norm(std::span<const double> a);

/** The rows of `m`, concatenated into one row-major block. */
std::vector<double> flatten(const Matrix &m);

/** The rows of a row-major block of `width` > 0 doubles per row. */
Matrix toMatrix(std::span<const double> values, std::size_t width);

/** Column count of a matrix (0 for an empty matrix). */
std::size_t columns(const Matrix &m);

/** Per-column maxima of absolute values (size = columns). */
Vec columnAbsMax(const Matrix &m);

/** Per-column means. */
Vec columnMean(const Matrix &m);

/** Per-column standard deviations (population). */
Vec columnStddev(const Matrix &m, const Vec &mean);

} // namespace fits::ml

#endif // FITS_MLKIT_VECTOR_HH_
