#ifndef FITS_MLKIT_SCALING_HH_
#define FITS_MLKIT_SCALING_HH_

#include "mlkit/vector.hh"

namespace fits::ml {

/**
 * Feature-scaling transforms: the preprocessing alternatives the paper
 * compares the clustering stage against in §4.5 (standardization,
 * min-max normalization; PCA is in pca.hh). Each rescales a row-major
 * block of `width` > 0 doubles per row in place, column by column.
 */

/** Z-score standardization per column (zero-stddev columns become 0). */
void standardize(std::span<double> rows, std::size_t width);

/** Min-max normalization per column into [0, 1] (constant columns
 * become 0). */
void minMaxScale(std::span<double> rows, std::size_t width);

} // namespace fits::ml

#endif // FITS_MLKIT_SCALING_HH_
