#ifndef FITS_MLKIT_VECTOR_HH_
#define FITS_MLKIT_VECTOR_HH_

#include <cstddef>
#include <span>
#include <vector>

namespace fits::ml {

/** A feature vector: one row of a feature matrix. */
using Vec = std::vector<double>;

/*
 * Feature matrices are row-major blocks: row i of a block of `width`
 * doubles per row is the span of the `width` doubles at
 * `values[i * width]`. The kernels read rows as
 * std::span<const double>, to which a Vec converts implicitly.
 */

/** Dot product; rows must have equal dimension. */
double dot(std::span<const double> a, std::span<const double> b);

/** Euclidean (L2) norm. */
double norm(std::span<const double> a);

/** Per-column means of a block of `width` > 0 doubles per row (zeros
 * for an empty block). */
Vec columnMean(std::span<const double> rows, std::size_t width);

/** A feature matrix of one Vec per row; all rows share one length.
 * Serves the traced corpus benchmark (corpusbench/corpus_trace.cc)
 * until ROADMAP item 3 step B. */
using Matrix = std::vector<Vec>;

/** The rows of `m`, concatenated into one row-major block. Serves
 * the traced benchmark until ROADMAP item 3 step B. */
std::vector<double> flatten(const Matrix &m);

/** Column count of a matrix (0 for an empty matrix). Serves the
 * traced benchmark until ROADMAP item 3 step B. */
std::size_t columns(const Matrix &m);

/** Per-column maxima of absolute values (size = columns). Serves
 * the traced benchmark until ROADMAP item 3 step B. */
Vec columnAbsMax(const Matrix &m);

} // namespace fits::ml

#endif // FITS_MLKIT_VECTOR_HH_
