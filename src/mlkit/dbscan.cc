#include "dbscan.hh"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace fits::ml {

std::vector<std::vector<std::size_t>>
DbscanResult::allMembers() const
{
    std::vector<std::vector<std::size_t>> out(
        static_cast<std::size_t>(numClusters));
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] >= 0)
            out[static_cast<std::size_t>(labels[i])].push_back(i);
    }
    return out;
}

/*
 * Rows with the same bit pattern have the same distance to every row,
 * so the region queries run once per distinct row ("class"), and a
 * class's neighbor count is the summed size of its adjacent classes.
 * The labels equal the sequential point-by-point algorithm's because
 * that algorithm numbers each cluster by its lowest-index core point
 * and fully expands one cluster before starting the next, so a border
 * point lands in the lowest-numbered cluster with a core neighbor.
 */
DbscanResult
dbscan(std::span<const double> rows, std::size_t width,
       const DbscanConfig &config)
{
    constexpr int kNoise = -1;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    if (width == 0 ? !rows.empty() : rows.size() % width != 0)
        throw std::invalid_argument("dbscan: block of partial rows");
    const std::size_t n = width == 0 ? 0 : rows.size() / width;
    const auto row = [&rows, width](std::size_t i) {
        return rows.data() + i * width;
    };

    // 1. Group the rows by exact bit pattern, numbering the classes in
    //    first-occurrence order.
    std::unordered_map<std::string_view, std::size_t> classIds;
    classIds.reserve(n);
    std::vector<std::size_t> classOf(n);
    std::vector<const double *> first; ///< class -> its first row
    std::vector<std::size_t> size;     ///< class -> its row count
    for (std::size_t i = 0; i < n; ++i) {
        const std::string_view bits(
            reinterpret_cast<const char *>(row(i)),
            width * sizeof(double));
        const auto [it, added] = classIds.try_emplace(bits, size.size());
        if (added) {
            first.push_back(row(i));
            size.push_back(0);
        }
        classOf[i] = it->second;
        ++size[it->second];
    }
    const std::size_t k = size.size();

    // 2. One region query per class: the classes whose first row lies
    //    within eps of class c's, ascending, by the per-pair formula of
    //    euclideanDistance (same accumulation order, same final sqrt).
    //    A class is core when its adjacent classes (itself only if
    //    within eps of itself: a row holding a NaN is not) hold at
    //    least minPts rows. Locals, not loads through `first` or
    //    `config`: the appends could otherwise alias them and force a
    //    reload on every pair.
    const double eps = config.eps;
    const double *const *classRows = first.data();
    std::vector<std::size_t> adjacency;         ///< all classes' lists
    std::vector<std::size_t> adjacencyStart{0}; ///< class -> offset
    std::vector<char> core(k);
    for (std::size_t c = 0; c < k; ++c) {
        const double *a = classRows[c];
        for (std::size_t d = 0; d < k; ++d) {
            const double *b = classRows[d];
            double s = 0.0;
            for (std::size_t i = 0; i < width; ++i) {
                const double diff = a[i] - b[i];
                s += diff * diff;
            }
            if (std::sqrt(s) <= eps)
                adjacency.push_back(d);
        }
        std::size_t weight = 0;
        for (std::size_t j = adjacencyStart[c]; j < adjacency.size(); ++j)
            weight += size[adjacency[j]];
        core[c] = weight >= config.minPts;
        adjacencyStart.push_back(adjacency.size());
    }
    auto adjacent = [&](std::size_t c) {
        return std::span<const std::size_t>(
            adjacency.data() + adjacencyStart[c],
            adjacencyStart[c + 1] - adjacencyStart[c]);
    };

    // 3. Connected components of the core classes. A lone core class
    //    that is not its own neighbor does not connect its rows: each
    //    of them is a cluster by itself.
    std::vector<std::size_t> component(k, kNone);
    std::vector<char> splits; ///< component -> one cluster per row
    std::vector<std::size_t> stack;
    for (std::size_t root = 0; root < k; ++root) {
        if (!core[root] || component[root] != kNone)
            continue;
        const std::size_t id = splits.size();
        std::size_t classes = 0;
        component[root] = id;
        stack.push_back(root);
        while (!stack.empty()) {
            const std::size_t c = stack.back();
            stack.pop_back();
            ++classes;
            for (std::size_t d : adjacent(c)) {
                if (core[d] && component[d] == kNone) {
                    component[d] = id;
                    stack.push_back(d);
                }
            }
        }
        const auto own = adjacent(root); // ascending
        splits.push_back(classes == 1 &&
                         !std::binary_search(own.begin(), own.end(), root));
    }

    // 4. Number the clusters by their lowest-index core row and label
    //    the core rows; clusterOf is a component's lowest cluster.
    DbscanResult result;
    result.labels.assign(n, kNoise);
    std::vector<int> clusterOf(splits.size(), kNoise);
    int cluster = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = classOf[i];
        if (!core[c])
            continue;
        int &lowest = clusterOf[component[c]];
        if (lowest == kNoise)
            result.labels[i] = lowest = cluster++;
        else
            result.labels[i] = splits[component[c]] ? cluster++ : lowest;
    }
    result.numClusters = cluster;

    // 5. A non-core class joins the lowest-numbered cluster with a core
    //    neighbor, or stays noise; its rows copy that label.
    std::vector<int> borderLabel(k, kNoise);
    for (std::size_t c = 0; c < k; ++c) {
        if (core[c])
            continue;
        for (std::size_t d : adjacent(c)) {
            if (!core[d])
                continue;
            const int label = clusterOf[component[d]];
            if (borderLabel[c] == kNoise || label < borderLabel[c])
                borderLabel[c] = label;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!core[classOf[i]])
            result.labels[i] = borderLabel[classOf[i]];
    }
    return result;
}

DbscanResult
dbscan(const Matrix &points, const DbscanConfig &config)
{
    const std::size_t width = columns(points);
    for (const Vec &point : points) {
        if (point.size() != width || width == 0)
            throw std::invalid_argument(
                "dbscan: rows of unequal or zero length");
    }
    return dbscan(flatten(points), width, config);
}

} // namespace fits::ml
