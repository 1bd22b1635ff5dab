#ifndef FITS_MLKIT_DBSCAN_HH_
#define FITS_MLKIT_DBSCAN_HH_

#include <cstdint>
#include <vector>

#include "mlkit/distance.hh"

namespace fits::ml {

/** DBSCAN parameters. Distances are Euclidean, the one metric FITS
 * clusters BFVs with. */
struct DbscanConfig
{
    double eps = 0.5;
    std::size_t minPts = 3;
};

/** Clustering outcome; label -1 marks noise points. */
struct DbscanResult
{
    std::vector<int> labels;
    int numClusters = 0;

    /** Row indices of one cluster. */
    std::vector<std::size_t> members(int cluster) const;

    /** Member lists of all clusters (indexed by label) in one pass;
     * prefer this over calling members() per cluster. */
    std::vector<std::vector<std::size_t>> allMembers() const;

    std::size_t noiseCount() const;
};

/**
 * Density-based spatial clustering (Ester et al.), the algorithm FITS
 * uses for behavior clustering, over the rows of a row-major block of
 * `width` doubles per row. Rows are first grouped by exact bit
 * pattern, since BFVs of small-integer features collide heavily (about
 * 3 % of a binary's rows are distinct); region queries then run once
 * per distinct row and weight each by its row count, for O(k^2 d + n)
 * over k distinct rows instead of O(n^2 d). Labels and cluster
 * numbering equal the sequential point-by-point algorithm's.
 *
 * @throws std::invalid_argument unless `rows` holds whole rows of a
 * positive width (an empty block is zero rows).
 */
DbscanResult dbscan(std::span<const double> rows, std::size_t width,
                    const DbscanConfig &config);

/** DBSCAN over the rows of a matrix: the block kernel above on its
 * flattened rows.
 * @throws std::invalid_argument when the rows differ in length or
 * hold no values. */
DbscanResult dbscan(const Matrix &points, const DbscanConfig &config);

} // namespace fits::ml

#endif // FITS_MLKIT_DBSCAN_HH_
