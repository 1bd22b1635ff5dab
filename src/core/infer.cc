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

/** The `kept` BFV features of `ids` as one row-major block. */
std::vector<double>
bfvRows(const BehaviorRepr &repr, const std::vector<FnId> &ids,
        const std::vector<int> &kept)
{
    std::vector<double> rows(ids.size() * kept.size());
    double *out = rows.data();
    std::array<double, Bfv::kNumFeatures> features{};
    for (FnId id : ids) {
        repr.records[id].bfv.write(features);
        for (int k : kept)
            *out++ = features[static_cast<std::size_t>(k)];
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
 * Algorithm 2 on two row-major blocks of `width` > 0 doubles per row:
 * `custom` row i for repr.customFns[i], `anchors` row j for
 * repr.anchorFns[j]. The strategies transform the blocks in place and
 * one loop scores their rows.
 */
void
rankRows(const BehaviorRepr &repr, std::vector<double> custom,
         std::vector<double> anchors, std::size_t width,
         const InferConfig &config, InferenceResult &result)
{
    const std::size_t numCustom = repr.customFns.size();
    const std::size_t numAnchors = repr.anchorFns.size();

    // ---- Candidate selection ---------------------------------------
    // Indices into repr.customFns.
    obs::ScopedTimer clusterTimer("cluster");
    std::vector<std::size_t> candidates;

    // The §4.5 preprocessing baselines transform ml::Matrix rows: the
    // union of both blocks, so that both sides land in one space.
    const auto transformUnion = [&](auto transform) {
        custom.insert(custom.end(), anchors.begin(), anchors.end());
        const std::vector<double> out =
            ml::flatten(transform(ml::toMatrix(custom, width)));
        width = out.size() / (numCustom + numAnchors);
        const auto middle =
            out.begin() + static_cast<std::ptrdiff_t>(numCustom * width);
        custom.assign(out.begin(), middle);
        anchors.assign(middle, out.end());
    };

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
        std::vector<double> factors(width, 0.0);
        for (std::size_t i = 0; i < custom.size(); i += width) {
            for (std::size_t c = 0; c < width; ++c) {
                factors[c] =
                    std::max(factors[c], std::fabs(custom[i + c]));
            }
        }
        for (auto *block : {&custom, &anchors}) {
            for (std::size_t i = 0; i < block->size(); i += width) {
                for (std::size_t c = 0; c < width; ++c) {
                    if (factors[c] != 0.0)
                        (*block)[i + c] /= factors[c];
                }
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
      case CandidateStrategy::Pca:
        transformUnion([](const ml::Matrix &all) {
            return ml::fitPca(all, kPcaComponents).transformAll(all);
        });
        break;
      case CandidateStrategy::Standardize:
        transformUnion(ml::standardize);
        break;
      case CandidateStrategy::MinMax:
        transformUnion(ml::minMaxScale);
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
    const auto rowOf = [&width](const std::vector<double> &block,
                                std::size_t i) {
        return std::span<const double>(block.data() + i * width, width);
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
            anchorNorms.push_back(ml::norm(rowOf(anchors, a)));
    }

    std::vector<RankedFunction> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t member : candidates) {
        const FnId id = repr.customFns[member];
        const auto row = rowOf(custom, member);
        const double rowNorm = cosine ? ml::norm(row) : 0.0;
        double sum = 0.0;
        for (std::size_t a = 0; a < numAnchors; ++a) {
            if (!cosine) {
                sum += ml::similarity(config.scoreMetric, row,
                                      rowOf(anchors, a));
            } else if (rowNorm != 0.0 && anchorNorms[a] != 0.0) {
                // (cosineSimilarity's zero-norm addend is skipped.)
                sum += ml::dot(row, rowOf(anchors, a)) /
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
        rankRows(repr, bfvRows(repr, repr.customFns, kept),
                 bfvRows(repr, repr.anchorFns, kept), kept.size(), config,
                 result);
    }
    return result;
}

InferenceResult
inferIts(const BehaviorRepr &repr, const ml::Matrix &customVecs,
         const ml::Matrix &anchorVecs, const InferConfig &config)
{
    InferenceResult result = startResult(repr);
    if (!result.ok())
        return result;
    const std::size_t width = ml::columns(customVecs);
    const auto wrongWidth = [width](const ml::Vec &row) {
        return row.size() != width;
    };
    if (width == 0 || customVecs.size() != repr.customFns.size() ||
        anchorVecs.size() != repr.anchorFns.size() ||
        std::any_of(customVecs.begin(), customVecs.end(), wrongWidth) ||
        std::any_of(anchorVecs.begin(), anchorVecs.end(), wrongWidth)) {
        result.error = "feature rows do not match the custom and "
                       "anchor functions";
        return result;
    }
    rankRows(repr, ml::flatten(customVecs), ml::flatten(anchorVecs), width,
             config, result);
    return result;
}

} // namespace fits::core
