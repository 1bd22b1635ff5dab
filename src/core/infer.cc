#include "infer.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "core/semantic.hh"
#include "mlkit/pca.hh"
#include "mlkit/scaling.hh"
#include "obs/metrics.hh"

namespace fits::core {

using analysis::FnId;

const char *
candidateStrategyName(CandidateStrategy strategy)
{
    switch (strategy) {
      case CandidateStrategy::BehaviorClustering:
        return "behavior-clustering";
      case CandidateStrategy::DirectScoring:
        return "direct-scoring";
      case CandidateStrategy::Pca:
        return "pca";
      case CandidateStrategy::Standardize:
        return "standardize";
      case CandidateStrategy::MinMax:
        return "min-max";
    }
    return "?";
}

double
functionComplexity(const Bfv &bfv, const Bfv &maxima)
{
    auto normalized = [](double v, double max) {
        return max > 0.0 ? v / max : 0.0;
    };
    return normalized(bfv.numBlocks, maxima.numBlocks) +
           normalized(bfv.numCallers, maxima.numCallers) +
           normalized(bfv.numLibCalls, maxima.numLibCalls) +
           normalized(bfv.numAnchorCalls, maxima.numAnchorCalls);
}

namespace {

/*
 * Fixed settings of two comparison modes. Each mode runs with one
 * setting, so these are constants rather than options.
 */

/** PCA components of the Pca strategy's §4.5 baseline. */
constexpr std::size_t kPcaComponents = 4;

/** Weight of the symbol-name prior in vendor mode. */
constexpr double kSymbolWeight = 0.3;

/** The `kept` BFV features of the custom functions, then of the
 * anchors, as one row-major block. */
std::vector<double>
bfvRows(const BehaviorRepr &repr, const std::vector<int> &kept)
{
    std::vector<double> rows(
        (repr.customFns.size() + repr.anchorFns.size()) * kept.size());
    double *out = rows.data();
    std::array<double, Bfv::kNumFeatures> features{};
    for (const auto *ids : {&repr.customFns, &repr.anchorFns}) {
        for (FnId id : *ids) {
            repr.records[id].bfv.write(features);
            for (int k : kept)
                *out++ = features[static_cast<std::size_t>(k)];
        }
    }
    return rows;
}

/** Per-dimension maxima of the custom functions' raw feature values,
 * for Eq. (1). */
Bfv
customMaxima(const BehaviorRepr &repr)
{
    Bfv maxima;
    for (FnId id : repr.customFns) {
        const Bfv &b = repr.records[id].bfv;
        maxima.numBlocks = std::max(maxima.numBlocks, b.numBlocks);
        maxima.numCallers = std::max(maxima.numCallers, b.numCallers);
        maxima.numLibCalls =
            std::max(maxima.numLibCalls, b.numLibCalls);
        maxima.numAnchorCalls =
            std::max(maxima.numAnchorCalls, b.numAnchorCalls);
    }
    return maxima;
}

/** The counts every result carries, with an error when either
 * partition is empty. */
InferenceResult
startResult(const BehaviorRepr &repr)
{
    InferenceResult result;
    result.numCustom = repr.customFns.size();
    result.numAnchors = repr.anchorFns.size();
    if (repr.customFns.empty()) {
        result.error = "no custom functions to rank";
    } else if (repr.anchorFns.empty()) {
        result.error = "no anchor implementations found in the "
                       "dependency libraries";
    }
    return result;
}

/**
 * Algorithm 2 on one row-major block of `width` > 0 doubles per row:
 * row i for repr.customFns[i], then row numCustom + j for
 * repr.anchorFns[j]. The strategies transform the block in place (PCA
 * replaces it with a narrower one) and one loop scores its rows.
 */
void
rankRows(const BehaviorRepr &repr, std::vector<double> rows,
         std::size_t width, const InferConfig &config,
         InferenceResult &result)
{
    const std::size_t numCustom = repr.customFns.size();
    const std::size_t numAnchors = repr.anchorFns.size();

    // ---- Candidate selection ---------------------------------------
    // Indices into repr.customFns.
    obs::ScopedTimer clusterTimer("cluster");
    std::vector<std::size_t> candidates;

    switch (config.strategy) {
      case CandidateStrategy::BehaviorClustering: {
        // Cluster max-abs-scaled BFVs; DBSCAN noise points become
        // singleton classes so rare behaviours are not discarded
        // outright — the complexity filter decides.
        //
        // Scoring also happens in this normalized space (with the
        // anchor rows scaled by the same per-dimension factors): raw-
        // scale cosine is dominated by whichever count feature is
        // largest — exactly the failure §4.5 attributes to removing
        // the multi-stage strategy, which the DirectScoring branch
        // below reproduces by scoring raw vectors.
        const std::span<const double> custom(rows.data(),
                                             numCustom * width);
        std::vector<double> factors(width, 0.0);
        for (std::size_t i = 0; i < custom.size(); i += width) {
            for (std::size_t c = 0; c < width; ++c) {
                factors[c] =
                    std::max(factors[c], std::fabs(custom[i + c]));
            }
        }
        for (std::size_t i = 0; i < rows.size(); i += width) {
            for (std::size_t c = 0; c < width; ++c) {
                if (factors[c] != 0.0)
                    rows[i + c] /= factors[c];
            }
        }
        const obs::ScopedTimer kernelTimer("kernel.cluster");
        const ml::DbscanResult clusters =
            ml::dbscan(custom, width, config.dbscan);
        result.numClusters =
            static_cast<std::size_t>(clusters.numClusters);

        std::vector<std::vector<std::size_t>> classes =
            clusters.allMembers();
        if (config.noiseAsSingletons) {
            for (std::size_t i = 0; i < clusters.labels.size(); ++i) {
                if (clusters.labels[i] == -1)
                    classes.push_back({i});
            }
        }

        // Eq. (1): class complexity = mean member complexity over the
        // normalized bb/caller/lib/anchor dimensions.
        const Bfv maxima = customMaxima(repr);
        std::vector<double> complexity(classes.size(), 0.0);
        double total = 0.0;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            double sum = 0.0;
            for (std::size_t member : classes[c]) {
                const FnId id = repr.customFns[member];
                sum += functionComplexity(repr.records[id].bfv, maxima);
            }
            complexity[c] =
                sum / static_cast<double>(classes[c].size());
            total += complexity[c];
        }
        const double average =
            total / static_cast<double>(classes.size());
        result.avgClassComplexity = average;

        for (std::size_t c = 0; c < classes.size(); ++c) {
            if (complexity[c] > average) {
                for (std::size_t member : classes[c])
                    candidates.push_back(member);
            }
        }
        break;
      }
      case CandidateStrategy::DirectScoring:
        break;
      // The §4.5 preprocessing baselines transform both sides together,
      // so that they land in one space.
      case CandidateStrategy::Pca: {
        const ml::PcaModel pca = ml::fitPca(rows, width, kPcaComponents);
        rows = pca.transform(rows);
        width = pca.numComponents();
        break;
      }
      case CandidateStrategy::Standardize:
        ml::standardize(rows, width);
        break;
      case CandidateStrategy::MinMax:
        ml::minMaxScale(rows, width);
        break;
    }
    if (config.strategy != CandidateStrategy::BehaviorClustering) {
        for (std::size_t i = 0; i < numCustom; ++i)
            candidates.push_back(i);
    }

    result.numCandidates = candidates.size();
    clusterTimer.stopMs();

    // ---- Scoring (Eq. 2): mean similarity to the anchor matrix -----
    const obs::ScopedTimer rankTimer("rank");
    const obs::ScopedTimer kernelRankTimer("kernel.rank");
    const auto rowOf = [&](std::size_t i) {
        return std::span<const double>(rows.data() + i * width, width);
    };
    const auto anchorRow = [&](std::size_t a) {
        return rowOf(numCustom + a);
    };

    // Cosine fast path: norm() is a pure function of one row, so the
    // anchor norms can be hoisted out of the candidate loop and the
    // candidate norm out of the anchor loop. The quotient below uses
    // the exact expression (and zero checks) of cosineSimilarity(),
    // making each addend — and hence every score — bit-identical to
    // the generic path.
    const bool cosine = config.scoreMetric == ml::Metric::Cosine;
    std::vector<double> anchorNorms;
    if (cosine) {
        anchorNorms.reserve(numAnchors);
        for (std::size_t a = 0; a < numAnchors; ++a)
            anchorNorms.push_back(ml::norm(anchorRow(a)));
    }

    std::vector<RankedFunction> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t member : candidates) {
        const FnId id = repr.customFns[member];
        const auto row = rowOf(member);
        const double rowNorm = cosine ? ml::norm(row) : 0.0;
        double sum = 0.0;
        for (std::size_t a = 0; a < numAnchors; ++a) {
            if (!cosine) {
                sum += ml::similarity(config.scoreMetric, row,
                                      anchorRow(a));
            } else if (rowNorm != 0.0 && anchorNorms[a] != 0.0) {
                // (cosineSimilarity's zero-norm addend is skipped.)
                sum += ml::dot(row, anchorRow(a)) /
                       (rowNorm * anchorNorms[a]);
            }
        }
        RankedFunction rf;
        rf.id = id;
        rf.entry = repr.records[id].entry;
        rf.name = repr.records[id].name;
        rf.score = sum / static_cast<double>(numAnchors);
        if (config.useSymbolNames && !rf.name.empty()) {
            // Vendor mode: blend the symbol-name prior (0.5-neutral).
            rf.score +=
                kSymbolWeight * (semanticNameScore(rf.name) - 0.5);
        }
        ranked.push_back(std::move(rf));
    }

    std::sort(ranked.begin(), ranked.end(),
              [](const RankedFunction &a, const RankedFunction &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.entry < b.entry; // deterministic ties
              });
    if (ranked.size() > config.maxRanked)
        ranked.resize(config.maxRanked);
    result.ranking = std::move(ranked);
}

} // namespace

InferenceResult
inferIts(const BehaviorRepr &repr, const InferConfig &config)
{
    InferenceResult result = startResult(repr);
    if (result.ok()) {
        const std::vector<int> kept =
            Bfv::keptFeatures(config.dropFeature, config.onlyFeature);
        rankRows(repr, bfvRows(repr, kept), kept.size(), config, result);
    }
    return result;
}

InferenceResult
inferIts(const BehaviorRepr &repr, std::span<const double> custom,
         std::span<const double> anchors, std::size_t width,
         const InferConfig &config)
{
    InferenceResult result = startResult(repr);
    if (!result.ok())
        return result;
    const auto holds = [width](std::span<const double> block,
                               std::size_t count) {
        return block.size() % width == 0 && block.size() / width == count;
    };
    if (width == 0 || !holds(custom, repr.customFns.size()) ||
        !holds(anchors, repr.anchorFns.size())) {
        result.error = "feature rows do not match the custom and "
                       "anchor functions";
        return result;
    }
    std::vector<double> rows(custom.begin(), custom.end());
    rows.insert(rows.end(), anchors.begin(), anchors.end());
    rankRows(repr, std::move(rows), width, config, result);
    return result;
}

} // namespace fits::core
