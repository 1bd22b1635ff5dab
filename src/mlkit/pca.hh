#ifndef FITS_MLKIT_PCA_HH_
#define FITS_MLKIT_PCA_HH_

#include "mlkit/vector.hh"

namespace fits::ml {

/**
 * Principal component analysis via power iteration with deflation —
 * enough for the small (11-column) blocks this project projects, and
 * dependency-free. Rows are centered first; components are unit
 * vectors of the covariance matrix in decreasing eigenvalue order.
 */
struct PcaModel
{
    Vec mean; ///< per input column
    /** Row-major, one row of mean.size() doubles per component. */
    std::vector<double> components;

    std::size_t numComponents() const
    {
        return mean.empty() ? 0 : components.size() / mean.size();
    }

    /** Project a block of mean.size() doubles per row into component
     * space: a block of numComponents() doubles per row. */
    std::vector<double> transform(std::span<const double> rows) const;
};

/** Fit a PCA with the given number of components (clamped to the
 * column count) to a block of `width` > 0 doubles per row. */
PcaModel fitPca(std::span<const double> rows, std::size_t width,
                std::size_t numComponents, std::size_t iterations = 200);

} // namespace fits::ml

#endif // FITS_MLKIT_PCA_HH_
