#ifndef FITS_CORE_INFER_HH_
#define FITS_CORE_INFER_HH_

#include <string>
#include <vector>

#include "core/behavior.hh"
#include "mlkit/dbscan.hh"

namespace fits::core {

/**
 * How candidate custom functions are selected before scoring. The
 * paper's pipeline uses BehaviorClustering; the other strategies are
 * the §4.5 comparison points (direct scoring, and scoring after PCA /
 * standardization / min-max normalization instead of clustering).
 */
enum class CandidateStrategy : std::uint8_t {
    BehaviorClustering,
    DirectScoring,
    Pca,
    Standardize,
    MinMax,
};

const char *candidateStrategyName(CandidateStrategy strategy);

/** Inference configuration (Algorithm 2 plus evaluation knobs). */
struct InferConfig
{
    CandidateStrategy strategy = CandidateStrategy::BehaviorClustering;

    /** DBSCAN runs on max-abs-scaled BFVs, under Euclidean distance. */
    ml::DbscanConfig dbscan{0.35, 3};

    /** Similarity metric of the scoring stage (Table 8). */
    ml::Metric scoreMetric = ml::Metric::Cosine;

    /** CF-k ablation: remove this 0-based feature (-1 = keep all). */
    int dropFeature = -1;

    /** Single-feature inference: keep only this feature (-1 = all). */
    int onlyFeature = -1;

    /** Treat DBSCAN noise points as singleton classes (the default)
     * rather than discarding them before the complexity filter. */
    bool noiseAsSingletons = true;

    /**
     * Vendor mode (Discussion §5): blend the symbol-name prior into
     * the score, with a fixed weight, when function names are
     * available (unstripped builds). No effect on stripped binaries —
     * names are empty.
     */
    bool useSymbolNames = false;

    /** Cap on returned ranking length. */
    std::size_t maxRanked = 50;
};

/** One ranked custom function. */
struct RankedFunction
{
    analysis::FnId id = 0;
    ir::Addr entry = 0;
    std::string name;
    double score = 0.0;
};

/** Output of Algorithm 2, with stage statistics for the evaluation. */
struct InferenceResult
{
    std::vector<RankedFunction> ranking;
    std::size_t numCustom = 0;
    std::size_t numAnchors = 0;
    std::size_t numClusters = 0;
    std::size_t numCandidates = 0;
    double avgClassComplexity = 0.0;
    std::string error; // non-empty when inference could not run

    bool ok() const { return error.empty(); }
};

/**
 * Eq. (1): complexity of one function from its BFV — the sum of its
 * basic-block, caller, library-call and anchor-call features, each
 * normalized by the per-dimension maximum over all custom functions.
 */
double functionComplexity(const Bfv &bfv, const Bfv &maxima);

/** Algorithm 2: cluster, filter by class complexity, score, rank. */
InferenceResult inferIts(const BehaviorRepr &repr,
                         const InferConfig &config = {});

/** Algorithm 2 on caller-built rows of one width: `custom[i]` for
 * `repr.customFns[i]`, `anchors[j]` for `repr.anchorFns[j]`; Eq. (1)
 * still reads the BFVs. Table 7 ranks code-structure rows this way.
 * Rows that do not match the partition, or hold no features, return
 * an error. */
InferenceResult inferIts(const BehaviorRepr &repr,
                         const ml::Matrix &custom,
                         const ml::Matrix &anchors,
                         const InferConfig &config = {});

} // namespace fits::core

#endif // FITS_CORE_INFER_HH_
