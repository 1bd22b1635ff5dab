/** @file Oracle test of Algorithm 2 on row-major feature blocks:
 * core::inferIts must equal a plain reference scorer — one heap row
 * per function, max-abs scaling by copy, per-row PCA, standardization
 * and min-max normalization, and a scoring loop over ml::Matrix rows —
 * in ids, entries, score bits, cluster and candidate counts, for every
 * candidate strategy under every scoring metric, the CF-k and
 * single-feature transforms, and the caller-built rows of Table 7, on
 * corpus samples under seeds 0 and 1. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/infer.hh"
#include "core/semantic.hh"
#include "corpus_seeds.hh"
#include "eval/corpus_runner.hh"

namespace fits {
namespace {

using analysis::FnId;
using core::CandidateStrategy;
using core::InferConfig;
using core::InferenceResult;

// ---- reference scorer ----------------------------------------------

/** BFV rows of `ids` under the drop/keep-only feature transform, one
 * vector per function. A kept index overrides a dropped one; an
 * out-of-range index keeps every feature. */
ml::Matrix
referenceRows(const core::BehaviorRepr &repr,
              const std::vector<FnId> &ids, const InferConfig &config)
{
    const auto inRange = [](int k) {
        return k >= 0 && k < core::Bfv::kNumFeatures;
    };
    ml::Matrix rows;
    for (FnId id : ids) {
        ml::Vec row = repr.records[id].bfv.toVector();
        if (inRange(config.onlyFeature))
            row = {row[static_cast<std::size_t>(config.onlyFeature)]};
        else if (config.onlyFeature < 0 && inRange(config.dropFeature))
            row.erase(row.begin() + config.dropFeature);
        rows.push_back(std::move(row));
    }
    return rows;
}

// Reference copies of the §4.5 transforms, one heap row at a time.

ml::Vec
columnMean(const ml::Matrix &m)
{
    ml::Vec out(ml::columns(m), 0.0);
    if (m.empty())
        return out;
    for (const auto &row : m) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out[c] += row[c];
    }
    for (auto &v : out)
        v /= static_cast<double>(m.size());
    return out;
}

ml::Matrix
standardize(const ml::Matrix &m)
{
    const ml::Vec mean = columnMean(m);
    ml::Vec stddev(ml::columns(m), 0.0);
    for (const auto &row : m) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            const double d = row[c] - mean[c];
            stddev[c] += d * d;
        }
    }
    for (auto &v : stddev)
        v = std::sqrt(v / static_cast<double>(m.size()));
    ml::Matrix out = m;
    for (auto &row : out) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            row[c] = stddev[c] != 0.0 ? (row[c] - mean[c]) / stddev[c]
                                      : 0.0;
        }
    }
    return out;
}

ml::Matrix
minMaxScale(const ml::Matrix &m)
{
    const std::size_t cols = ml::columns(m);
    ml::Vec lo(cols, 0.0), hi(cols, 0.0);
    if (!m.empty()) {
        lo = m.front();
        hi = m.front();
        for (const auto &row : m) {
            for (std::size_t c = 0; c < cols; ++c) {
                lo[c] = std::min(lo[c], row[c]);
                hi[c] = std::max(hi[c], row[c]);
            }
        }
    }
    ml::Matrix out = m;
    for (auto &row : out) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double span = hi[c] - lo[c];
            row[c] = span != 0.0 ? (row[c] - lo[c]) / span : 0.0;
        }
    }
    return out;
}

/** PCA by power iteration with deflation (200 iterations per
 * component): the column means and the unit components, one row each. */
struct Pca
{
    ml::Vec mean;
    ml::Matrix components;

    ml::Matrix
    transformAll(const ml::Matrix &m) const
    {
        ml::Matrix out;
        for (const auto &row : m) {
            ml::Vec centered(row.size());
            for (std::size_t c = 0; c < row.size(); ++c)
                centered[c] = row[c] - mean[c];
            ml::Vec projected(components.size());
            for (std::size_t k = 0; k < components.size(); ++k)
                projected[k] = ml::dot(components[k], centered);
            out.push_back(std::move(projected));
        }
        return out;
    }
};

Pca
fitPca(const ml::Matrix &m, std::size_t numComponents)
{
    Pca model;
    const std::size_t cols = ml::columns(m);
    model.mean = columnMean(m);
    numComponents = std::min(numComponents, cols);
    if (m.empty() || cols == 0)
        return model;

    ml::Matrix cov(cols, ml::Vec(cols, 0.0));
    for (const auto &row : m) {
        for (std::size_t i = 0; i < cols; ++i) {
            const double di = row[i] - model.mean[i];
            for (std::size_t j = 0; j < cols; ++j)
                cov[i][j] += di * (row[j] - model.mean[j]);
        }
    }
    for (auto &r : cov) {
        for (auto &v : r)
            v /= static_cast<double>(m.size());
    }
    for (std::size_t k = 0; k < numComponents; ++k) {
        ml::Vec v(cols, 0.0);
        v[k % cols] = 1.0;
        double eigen = 0.0;
        for (std::size_t it = 0; it < 200; ++it) {
            ml::Vec next(cols, 0.0);
            for (std::size_t i = 0; i < cols; ++i) {
                for (std::size_t j = 0; j < cols; ++j)
                    next[i] += cov[i][j] * v[j];
            }
            const double len = ml::norm(next);
            if (len < 1e-12) {
                next.assign(cols, 0.0);
                v = next;
                eigen = 0.0;
                break;
            }
            for (auto &x : next)
                x /= len;
            v = next;
            eigen = len;
        }
        model.components.push_back(v);
        for (std::size_t i = 0; i < cols; ++i) {
            for (std::size_t j = 0; j < cols; ++j)
                cov[i][j] -= eigen * v[i] * v[j];
        }
    }
    return model;
}

/** Algorithm 2 over ml::Matrix rows, as a straightforward reading of
 * §3.3: cluster, filter by mean class complexity, score by mean
 * similarity to the anchors, rank. */
InferenceResult
referenceInfer(const core::BehaviorRepr &repr, const ml::Matrix &customVecs,
               const ml::Matrix &anchorVecs, const InferConfig &config)
{
    InferenceResult result;
    result.numCustom = repr.customFns.size();
    result.numAnchors = repr.anchorFns.size();
    if (repr.customFns.empty() || repr.anchorFns.empty()) {
        result.error = "empty partition";
        return result;
    }

    std::vector<std::size_t> candidates;
    ml::Matrix custom = customVecs;
    ml::Matrix anchors = anchorVecs;
    ml::Matrix all = customVecs;
    all.insert(all.end(), anchorVecs.begin(), anchorVecs.end());
    const auto split = [&](const ml::Matrix &scaled) {
        const auto middle =
            scaled.begin() + static_cast<std::ptrdiff_t>(custom.size());
        custom.assign(scaled.begin(), middle);
        anchors.assign(middle, scaled.end());
    };
    switch (config.strategy) {
      case CandidateStrategy::BehaviorClustering: {
        const ml::Vec factors = ml::columnAbsMax(customVecs);
        for (ml::Matrix *m : {&custom, &anchors}) {
            for (auto &row : *m) {
                for (std::size_t c = 0; c < row.size(); ++c) {
                    if (factors[c] != 0.0)
                        row[c] /= factors[c];
                }
            }
        }
        const ml::DbscanResult clusters = ml::dbscan(custom, config.dbscan);
        result.numClusters = static_cast<std::size_t>(clusters.numClusters);
        auto classes = clusters.allMembers();
        if (config.noiseAsSingletons) {
            for (std::size_t i = 0; i < clusters.labels.size(); ++i) {
                if (clusters.labels[i] == -1)
                    classes.push_back({i});
            }
        }
        core::Bfv maxima;
        for (FnId id : repr.customFns) {
            const core::Bfv &b = repr.records[id].bfv;
            maxima.numBlocks = std::max(maxima.numBlocks, b.numBlocks);
            maxima.numCallers = std::max(maxima.numCallers, b.numCallers);
            maxima.numLibCalls = std::max(maxima.numLibCalls, b.numLibCalls);
            maxima.numAnchorCalls =
                std::max(maxima.numAnchorCalls, b.numAnchorCalls);
        }
        std::vector<double> complexity;
        double total = 0.0;
        for (const auto &members : classes) {
            double sum = 0.0;
            for (std::size_t member : members) {
                sum += core::functionComplexity(
                    repr.records[repr.customFns[member]].bfv, maxima);
            }
            complexity.push_back(sum /
                                 static_cast<double>(members.size()));
            total += complexity.back();
        }
        result.avgClassComplexity =
            total / static_cast<double>(classes.size());
        for (std::size_t c = 0; c < classes.size(); ++c) {
            if (complexity[c] > result.avgClassComplexity) {
                candidates.insert(candidates.end(), classes[c].begin(),
                                  classes[c].end());
            }
        }
        break;
      }
      case CandidateStrategy::DirectScoring:
        break;
      case CandidateStrategy::Pca: {
        const Pca pca = fitPca(all, 4);
        custom = pca.transformAll(customVecs);
        anchors = pca.transformAll(anchorVecs);
        break;
      }
      case CandidateStrategy::Standardize:
        split(standardize(all));
        break;
      case CandidateStrategy::MinMax:
        split(minMaxScale(all));
        break;
    }
    if (config.strategy != CandidateStrategy::BehaviorClustering) {
        for (std::size_t i = 0; i < repr.customFns.size(); ++i)
            candidates.push_back(i);
    }
    result.numCandidates = candidates.size();

    for (std::size_t member : candidates) {
        const FnId id = repr.customFns[member];
        double sum = 0.0;
        for (const auto &anchorRow : anchors)
            sum += ml::similarity(config.scoreMetric, custom[member],
                                  anchorRow);
        core::RankedFunction rf;
        rf.id = id;
        rf.entry = repr.records[id].entry;
        rf.name = repr.records[id].name;
        rf.score = sum / static_cast<double>(anchors.size());
        if (config.useSymbolNames && !rf.name.empty())
            rf.score += 0.3 * (core::semanticNameScore(rf.name) - 0.5);
        result.ranking.push_back(rf);
    }
    std::sort(result.ranking.begin(), result.ranking.end(),
              [](const core::RankedFunction &a,
                 const core::RankedFunction &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.entry < b.entry;
              });
    if (result.ranking.size() > config.maxRanked)
        result.ranking.resize(config.maxRanked);
    return result;
}

// ---- comparison ----------------------------------------------------

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** The first difference between two results, or an empty string. */
std::string
compareResults(const InferenceResult &got, const InferenceResult &want)
{
    if (got.ok() != want.ok())
        return "error: '" + got.error + "' vs '" + want.error + "'";
    if (got.numCustom != want.numCustom ||
        got.numAnchors != want.numAnchors) {
        return "partition sizes";
    }
    if (got.numClusters != want.numClusters)
        return "numClusters " + std::to_string(got.numClusters) + " vs " +
               std::to_string(want.numClusters);
    if (got.numCandidates != want.numCandidates)
        return "numCandidates " + std::to_string(got.numCandidates) +
               " vs " + std::to_string(want.numCandidates);
    if (bits(got.avgClassComplexity) != bits(want.avgClassComplexity))
        return "avgClassComplexity";
    if (got.ranking.size() != want.ranking.size())
        return "ranking length";
    for (std::size_t r = 0; r < got.ranking.size(); ++r) {
        const auto &a = got.ranking[r];
        const auto &b = want.ranking[r];
        if (a.id != b.id || a.entry != b.entry || a.name != b.name ||
            bits(a.score) != bits(b.score)) {
            return "rank " + std::to_string(r);
        }
    }
    return "";
}

const char *
metricName(ml::Metric metric)
{
    switch (metric) {
      case ml::Metric::Cosine:    return "Cosine";
      case ml::Metric::Euclidean: return "Euclidean";
      case ml::Metric::Manhattan: return "Manhattan";
      case ml::Metric::Pearson:   return "Pearson";
    }
    return "?";
}

/** Every candidate strategy under every scoring metric, then one
 * CF-k, one single-feature, a noise-dropping and a vendor-mode
 * config under the defaults. */
std::vector<std::pair<std::string, InferConfig>>
oracleConfigs()
{
    std::vector<std::pair<std::string, InferConfig>> configs;
    for (const auto strategy :
         {CandidateStrategy::BehaviorClustering,
          CandidateStrategy::DirectScoring, CandidateStrategy::Pca,
          CandidateStrategy::Standardize, CandidateStrategy::MinMax}) {
        for (const auto metric :
             {ml::Metric::Cosine, ml::Metric::Euclidean,
              ml::Metric::Manhattan, ml::Metric::Pearson}) {
            InferConfig config;
            config.strategy = strategy;
            config.scoreMetric = metric;
            configs.emplace_back(std::string(core::candidateStrategyName(
                                     strategy)) +
                                     "/" + metricName(metric),
                                 config);
        }
    }
    InferConfig drop;
    drop.dropFeature = 2;
    configs.emplace_back("drop num-callers", drop);
    InferConfig only;
    only.onlyFeature = 4;
    configs.emplace_back("only num-anchor-calls", only);
    InferConfig noise;
    noise.noiseAsSingletons = false;
    configs.emplace_back("noise dropped", noise);
    InferConfig names;
    names.useSymbolNames = true;
    names.maxRanked = 5;
    configs.emplace_back("symbol names, top 5", names);
    return configs;
}

/** Outcomes of every `stride`-th sample of the corpus under `seed`. */
std::vector<eval::SampleOutcome>
sampledOutcomes(std::uint64_t seed, std::size_t stride)
{
    const auto all = test_support::seededSpecs(seed);
    std::vector<synth::SampleSpec> specs;
    for (std::size_t i = 0; i < all.size(); i += stride)
        specs.push_back(all[i]);
    return eval::CorpusRunner().run(specs);
}

void
expectMatchesReference(std::uint64_t seed, std::size_t stride)
{
    const auto outcomes = sampledOutcomes(seed, stride);
    const auto configs = oracleConfigs();
    std::size_t compared = 0;
    for (const auto &outcome : outcomes) {
        if (!outcome.ok())
            continue;
        const core::BehaviorRepr &repr = outcome.behavior;
        for (const auto &[name, config] : configs) {
            SCOPED_TRACE(outcome.spec.name + " " + name);
            const auto custom = referenceRows(repr, repr.customFns, config);
            const auto anchors = referenceRows(repr, repr.anchorFns, config);
            const auto want = referenceInfer(repr, custom, anchors, config);
            ASSERT_TRUE(want.ok());
            EXPECT_EQ(compareResults(core::inferIts(repr, config), want), "");
            EXPECT_EQ(compareResults(
                          core::inferIts(repr, ml::flatten(custom),
                                         ml::flatten(anchors),
                                         ml::columns(custom), config),
                          want),
                      "");
            ++compared;
        }
    }
    EXPECT_GE(compared, 3 * configs.size());
}

TEST(InferOracle, MatchesReferenceOnCorpusSeed0)
{
    expectMatchesReference(0, 10);
}

TEST(InferOracle, MatchesReferenceOnCorpusSeed1)
{
    expectMatchesReference(1, 15);
}

} // namespace
} // namespace fits
