/**
 * @file
 * `corpus_trace` — the per-layer half of the corpus benchmark.
 *
 *   corpus_trace trace --workload cold|warm|taint --seed N --seconds S
 *                      --cache-dir DIR --spans FILE
 *       Evaluate the corpus serially, calling each layer's public
 *       functions in `fits corpus` pipeline order and recording one span
 *       per call (name, start, end, parent, sample). Passes repeat until
 *       S seconds have elapsed (at least one), each from an empty
 *       in-process cache. Prints the deterministic report text (what
 *       `fits corpus` prints between its header and its timing line),
 *       then one JSON line with the per-layer metrics of the pass whose
 *       traced wall time is the median. That pass's spans go to FILE as
 *       Chrome trace-event JSON.
 *   corpus_trace write --seed N --out DIR
 *       Write the corpus of seed N as DIR/sNN.fwimg, in corpus order, for
 *       `fits corpus --dir DIR`.
 *
 * Workloads mirror the benchmark's three commands. `cold` and `warm`
 * take the inference path with the behavior cache: cold stores every
 * blob in a fresh per-pass directory under DIR, warm reads the blobs a
 * priming `fits corpus` run left in DIR. `taint` has the behavior cache
 * off and runs the four Table-5 engine configurations after inference.
 *
 * Seed 0 is the built-in 59-sample corpus, scored against its ground
 * truth. Any other seed re-seeds the 59 standard specs and scores them
 * the way `fits corpus --dir` does, with no vendor and no ground truth,
 * so the text can be compared with that command's output.
 *
 * Two measurements are replays, run after a sample's stages and kept out
 * of the traced wall time: reaching definitions over every function the
 * sample analyzed afresh (`analysis.reachdef`), and DBSCAN over the
 * sample's max-abs-scaled custom BFV matrix (`mlkit.dbscan`).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/program_analysis.hh"
#include "cache/cache.hh"
#include "core/behavior_io.hh"
#include "core/pipeline.hh"
#include "eval/harness.hh"
#include "eval/tables.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "mlkit/dbscan.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace {

using namespace fits;
namespace fsys = std::filesystem;
using Clock = std::chrono::steady_clock;

enum class Workload { Cold, Warm, Taint };

// ---- spans -----------------------------------------------------------

struct Span
{
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;
    int parent = -1;
    int sample = -1;
    bool replay = false;

    double durMs() const { return endMs - startMs; }
};

/** In-memory span recorder. The driver is serial, so the stack of open
 * spans gives each new span its parent. */
class Tracer
{
  public:
    void
    begin(const char *name, int sample, bool replay)
    {
        Span span;
        span.name = name;
        span.startMs = nowMs();
        span.parent = open_.empty() ? -1 : open_.back();
        span.sample = sample;
        span.replay = replay;
        spans_.push_back(std::move(span));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    void
    end()
    {
        spans_[static_cast<std::size_t>(open_.back())].endMs = nowMs();
        open_.pop_back();
    }

    double
    nowMs() const
    {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         origin_)
            .count();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opened on construction, closed on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, int sample,
          bool replay = false)
        : tracer_(tracer)
    {
        tracer_.begin(name, sample, replay);
    }
    ~Scope() { tracer_.end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
};

// ---- corpus ----------------------------------------------------------

/**
 * The 59 standard specs; a non-zero seed re-seeds every sample. A
 * re-seeded sample keeps the function count of its network binary, the
 * size Figure 4 ties analysis time to, so a seed changes what the
 * corpus contains but hardly how much work it is, and seeds compare.
 */
std::vector<synth::SampleSpec>
corpusSpecs(std::uint64_t seed)
{
    auto specs = synth::standardDataset();
    if (seed == 0)
        return specs;
    for (auto &spec : specs) {
        if (spec.failure !=
            synth::SampleSpec::FailureMode::NoNetworkBinary) {
            const int size = static_cast<int>(
                synth::generateHttpd(spec).image.program.size());
            spec.profile.minCustomFns = size;
            spec.profile.maxCustomFns = size;
        }
        // splitmix64 finalizer over (sample seed, workload seed).
        std::uint64_t z = spec.seed ^ (seed * 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        spec.seed = z ^ (z >> 31);
    }
    return specs;
}

// ---- one pass --------------------------------------------------------

struct SampleOutcome
{
    std::string vendor;
    bool inferenceOk = false;
    bool taintOk = false;
    bool degraded = false;
    int rank = -1;
    std::size_t numFunctions = 0;
    double ms = 0.0; ///< the sample's stage span, replays excluded
    eval::EngineStats karonte, karonteIts, sta, staIts;
};

/** Work counts the spans do not carry. */
struct Counters
{
    std::uint64_t synthBytes = 0;
    std::uint64_t firmwareFailed = 0;
    std::uint64_t functions = 0;
    std::uint64_t reachdefCalls = 0;
    std::uint64_t dbscanRows = 0;
    std::uint64_t dbscanDistinct = 0;
    std::uint64_t blobFetches = 0;
    std::uint64_t blobHits = 0;
    std::uint64_t taintSteps = 0;
    std::uint64_t taintAlerts = 0;
    std::uint64_t karonteRuns = 0;
    std::uint64_t karonteExhausted = 0;
};

struct PassResult
{
    std::vector<Span> spans;
    std::string text;
    std::map<std::string, double> metrics;
};

/** Render exactly the deterministic body `fits corpus` prints. */
std::string
renderReport(const std::vector<SampleOutcome> &outcomes, bool taint)
{
    std::string text;
    const std::vector<std::string> vendorOrder = {
        "NETGEAR", "D-Link", "TP-Link", "Tenda", "Cisco"};
    eval::TablePrinter table({"Vendor", "#FW", "Top-1", "Top-2", "Top-3"});
    eval::PrecisionStats overall;
    for (const auto &vendor : vendorOrder) {
        eval::PrecisionStats stats;
        for (const auto &outcome : outcomes) {
            if (outcome.vendor == vendor)
                stats.addRank(outcome.inferenceOk ? outcome.rank : -1);
        }
        overall.total += stats.total;
        overall.top1 += stats.top1;
        overall.top2 += stats.top2;
        overall.top3 += stats.top3;
        table.addRow({vendor, std::to_string(stats.total),
                      eval::percent(stats.p1()), eval::percent(stats.p2()),
                      eval::percent(stats.p3())});
    }
    table.addSeparator();
    table.addRow({"Overall", std::to_string(overall.total),
                  eval::percent(overall.p1()), eval::percent(overall.p2()),
                  eval::percent(overall.p3())});
    text += table.render();

    if (taint) {
        eval::EngineStats karonte, karonteIts, sta, staIts;
        int analyzed = 0;
        for (const auto &outcome : outcomes) {
            if (!outcome.taintOk)
                continue;
            ++analyzed;
            karonte += outcome.karonte;
            karonteIts += outcome.karonteIts;
            sta += outcome.sta;
            staIts += outcome.staIts;
        }
        text += support::format("\ntaint engines (%d analyzable samples, "
                                "one shared analysis per sample):\n",
                                analyzed);
        eval::TablePrinter engines(
            {"", "Karonte", "Karonte-ITS", "STA", "STA-ITS"});
        engines.addRow({"Alerts", std::to_string(karonte.alerts),
                        std::to_string(karonteIts.alerts),
                        std::to_string(sta.alerts),
                        std::to_string(staIts.alerts)});
        engines.addRow({"Bugs", std::to_string(karonte.bugs),
                        std::to_string(karonteIts.bugs),
                        std::to_string(sta.bugs),
                        std::to_string(staIts.bugs)});
        engines.addRow({"FP rate",
                        eval::percent(karonte.falsePositiveRate()),
                        eval::percent(karonteIts.falsePositiveRate()),
                        eval::percent(sta.falsePositiveRate()),
                        eval::percent(staIts.falsePositiveRate())});
        text += engines.render();
    }

    std::size_t failed = 0;
    std::size_t degraded = 0;
    for (const auto &outcome : outcomes) {
        degraded += outcome.degraded ? 1 : 0;
        if (!outcome.inferenceOk || (taint && !outcome.taintOk))
            ++failed;
    }
    text += support::format("\nfailed samples: %zu/%zu\n", failed,
                            outcomes.size());
    if (degraded > 0) {
        text += support::format("degraded samples: %zu/%zu (0 retried)\n",
                                degraded, outcomes.size());
    }
    return text;
}

/** Linearly interpolated quantile; 0 for no values. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    if (dir.empty() || !fsys::is_directory(dir, ec))
        return 0;
    for (const auto &entry : fsys::directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    }
    return total;
}

double
ratio(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

class Driver
{
  public:
    Driver(Workload workload, std::uint64_t seed, std::string cacheDir)
        : workload_(workload),
          seed_(seed),
          cacheDir_(std::move(cacheDir))
    {
        config_.behaviorCache = workload != Workload::Taint;
        blobKey2_ = core::behaviorConfigFingerprint(config_.behavior);
    }

    PassResult runPass(int passIndex);

  private:
    SampleOutcome evaluate(Tracer &tracer, int sample,
                           const synth::GeneratedFirmware &fw);
    void runEngines(Tracer &tracer, int sample,
                    const core::PipelineArtifact &artifact,
                    const synth::GroundTruth &truth, SampleOutcome &out);

    Workload workload_;
    std::uint64_t seed_;
    std::string cacheDir_;
    core::PipelineConfig config_;
    std::uint64_t blobKey2_ = 0;
    Counters counters_;
};

PassResult
Driver::runPass(int passIndex)
{
    // Every pass starts from an empty in-process cache. A cold pass
    // writes its blobs to a fresh directory, a warm pass reads the
    // primed one, and a taint pass has no disk tier, as in the
    // benchmark's `fits corpus` runs.
    counters_ = Counters{};
    cache::clearMemory();
    cache::Options options;
    std::string diskDir;
    if (workload_ == Workload::Cold) {
        diskDir = cacheDir_ + "/pass-" + std::to_string(passIndex);
        std::error_code ec;
        fsys::remove_all(diskDir, ec);
    } else if (workload_ == Workload::Warm) {
        diskDir = cacheDir_;
    }
    options.disk = !diskDir.empty();
    options.dir = diskDir;
    cache::configure(options);
    cache::resetStats();

    const auto specs = corpusSpecs(seed_);
    Tracer tracer;

    // As in `fits corpus`, the whole corpus exists before evaluation.
    std::vector<synth::GeneratedFirmware> corpus;
    corpus.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Scope span(tracer, "synth.generate", static_cast<int>(i));
        corpus.push_back(synth::generateFirmware(specs[i]));
        counters_.synthBytes += corpus.back().bytes.size();
    }

    std::vector<SampleOutcome> outcomes;
    for (std::size_t i = 0; i < corpus.size(); ++i)
        outcomes.push_back(evaluate(tracer, static_cast<int>(i), corpus[i]));
    const double endMs = tracer.nowMs();
    const cache::Stats cacheStats = cache::stats();
    const std::uint64_t diskBytes = directoryBytes(diskDir);
    if (workload_ == Workload::Cold) {
        std::error_code ec;
        fsys::remove_all(diskDir, ec);
    }

    PassResult pass;
    pass.spans = tracer.spans();
    pass.text = renderReport(outcomes, workload_ == Workload::Taint);
    const auto &spans = pass.spans;

    // Self time: a span minus the part its children cover. Spans nest
    // strictly in a serial driver, so that part is the children's sum.
    std::vector<double> childMs(spans.size(), 0.0);
    for (const auto &span : spans) {
        if (span.parent >= 0)
            childMs[static_cast<std::size_t>(span.parent)] += span.durMs();
    }
    std::map<std::string, double> selfMs;
    double replayMs = 0.0;
    double stageMs = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        selfMs[spans[i].name] += spans[i].durMs() - childMs[i];
        if (spans[i].parent >= 0)
            continue;
        (spans[i].replay ? replayMs : stageMs) += spans[i].durMs();
        if (spans[i].name == "eval.sample")
            outcomes[static_cast<std::size_t>(spans[i].sample)].ms =
                spans[i].durMs();
    }
    const double wallMs = endMs - replayMs;

    auto &m = pass.metrics;
    const char *layers[] = {
        "synth.generate",   "firmware.unpack", "firmware.select",
        "analysis.lift",    "analysis.ucse",   "analysis.reachdef",
        "core.bfv",         "core.infer",      "mlkit.dbscan",
        "cache.blob_write", "cache.blob_read", "taint.sta",
        "taint.karonte"};
    for (const char *layer : layers)
        m[std::string(layer) + "_ms"] = selfMs[layer];
    m["eval.self_ms"] = selfMs["eval.sample"];
    m["trace.wall_ms"] = wallMs;
    m["trace.other_ms"] = wallMs - stageMs;

    const Counters &c = counters_;
    m["synth.bytes"] = static_cast<double>(c.synthBytes);
    m["firmware.failed"] = static_cast<double>(c.firmwareFailed);
    m["analysis.functions"] = static_cast<double>(c.functions);
    m["analysis.reachdef_calls"] = static_cast<double>(c.reachdefCalls);
    m["mlkit.dbscan_rows"] = static_cast<double>(c.dbscanRows);
    m["mlkit.dbscan_distinct_ratio"] =
        ratio(c.dbscanDistinct, c.dbscanRows);
    m["cache.mem_hit_ratio"] =
        ratio(cacheStats.hits, cacheStats.hits + cacheStats.misses);
    m["cache.mem_mb"] =
        static_cast<double>(cacheStats.bytes) / (1024.0 * 1024.0);
    m["cache.disk_mb"] = static_cast<double>(diskBytes) / (1024.0 * 1024.0);
    m["cache.blob_hit_ratio"] = ratio(c.blobHits, c.blobFetches);
    m["taint.steps"] = static_cast<double>(c.taintSteps);
    m["taint.alerts"] = static_cast<double>(c.taintAlerts);
    m["taint.karonte_budget_exhausted_ratio"] =
        ratio(c.karonteExhausted, c.karonteRuns);

    std::vector<double> sampleMs;
    std::vector<std::pair<std::size_t, double>> bySize;
    double sampleSum = 0.0;
    for (const auto &outcome : outcomes) {
        sampleMs.push_back(outcome.ms);
        sampleSum += outcome.ms;
        if (outcome.numFunctions > 0)
            bySize.emplace_back(outcome.numFunctions, outcome.ms);
    }
    m["eval.sample_p50_ms"] = quantile(sampleMs, 0.5);
    m["eval.sample_p90_ms"] = quantile(sampleMs, 0.9);
    m["eval.sample_max_ms"] = quantile(sampleMs, 1.0);
    m["eval.sample_sum_ms"] = sampleSum;

    // Figure 4's quantity: the median per-sample time of the smallest,
    // middle and largest third of the samples with a selected binary,
    // by its function count.
    std::stable_sort(bySize.begin(), bySize.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    const char *buckets[] = {"fig4.small_ms", "fig4.medium_ms",
                             "fig4.large_ms"};
    for (std::size_t b = 0; b < 3; ++b) {
        std::vector<double> ms;
        for (std::size_t i = b * bySize.size() / 3;
             i < (b + 1) * bySize.size() / 3; ++i)
            ms.push_back(bySize[i].second);
        m[buckets[b]] = quantile(ms, 0.5);
    }
    return pass;
}

SampleOutcome
Driver::evaluate(Tracer &tracer, int sample,
                 const synth::GeneratedFirmware &fw)
{
    const synth::GroundTruth noTruth;
    const synth::GroundTruth &truth = seed_ == 0 ? fw.truth : noTruth;
    SampleOutcome out;
    if (seed_ == 0)
        out.vendor = fw.spec.profile.vendor;

    core::PipelineArtifact artifact;
    std::vector<bool> freshImages; // per [main, libs...] image
    {
        const Scope sampleSpan(tracer, "eval.sample", sample);

        // The behavior-cache lookup of FitsPipeline::analyze.
        bool cached = false;
        std::uint64_t blobKey1 = 0;
        if (config_.behaviorCache) {
            const Scope span(tracer, "cache.blob_read", sample);
            ++counters_.blobFetches;
            blobKey1 = support::fnv1a(fw.bytes.data(), fw.bytes.size());
            const auto payload =
                cache::fetchBlob("behavior", blobKey1, blobKey2_);
            auto bundle = payload.has_value()
                              ? core::decodeBehaviorBundle(*payload)
                              : std::nullopt;
            if (bundle.has_value()) {
                ++counters_.blobHits;
                cached = true;
                artifact.numFunctions =
                    static_cast<std::size_t>(bundle->numFunctions);
                artifact.behavior = std::move(bundle->behavior);
            }
        }

        fw::ImageInfo imageInfo;
        bool selected = false;
        if (!cached) {
            auto unpacked = [&] {
                const Scope span(tracer, "firmware.unpack", sample);
                return fw::unpackFirmware(fw.bytes);
            }();
            if (unpacked) {
                imageInfo = unpacked.value().info;
                auto target = [&] {
                    const Scope span(tracer, "firmware.select", sample);
                    return fw::selectAnalysisTarget(
                        unpacked.value().filesystem);
                }();
                if (target) {
                    artifact.target = std::make_unique<fw::AnalysisTarget>(
                        target.take());
                    selected = true;
                }
            }
            if (!selected)
                ++counters_.firmwareFailed;
        }

        if (selected) {
            const fw::AnalysisTarget &target = *artifact.target;
            artifact.numFunctions = target.main->program.size();
            artifact.degraded = !target.missingLibraries.empty();
            {
                const Scope span(tracer, "analysis.lift", sample);
                artifact.linked = std::make_unique<analysis::LinkedProgram>(
                    *target.main, target.libraries);
            }
            {
                const Scope span(tracer, "analysis.ucse", sample);
                std::vector<analysis::FunctionAnalysis> fns;
                fns.reserve(artifact.linked->fnCount());
                const auto appendImage =
                    [&](const std::shared_ptr<const bin::BinaryImage>
                            &image) {
                        const std::uint64_t misses = cache::stats().misses;
                        const auto analyses = cache::functionAnalyses(
                            image, config_.behavior.ucse);
                        freshImages.push_back(cache::stats().misses !=
                                              misses);
                        fns.insert(fns.end(), analyses->begin(),
                                   analyses->end());
                    };
                appendImage(target.main);
                for (const auto &lib : target.libraries)
                    appendImage(lib);
                artifact.analysis =
                    std::make_unique<analysis::ProgramAnalysis>(
                        analysis::ProgramAnalysis::fromFunctionAnalyses(
                            *artifact.linked, std::move(fns)));
            }
            counters_.functions += artifact.analysis->fns.size();
            {
                const Scope span(tracer, "core.bfv", sample);
                const core::BehaviorAnalyzer analyzer(config_.behavior);
                artifact.behavior = analyzer.analyze(*artifact.analysis);
            }
            if (config_.behaviorCache && !artifact.degraded) {
                const Scope span(tracer, "cache.blob_write", sample);
                core::BehaviorBundle bundle;
                bundle.imageInfo = imageInfo;
                bundle.binaryName = target.main->name;
                bundle.numFunctions = artifact.numFunctions;
                bundle.binaryBytes = target.main->byteSize();
                bundle.behavior = artifact.behavior;
                cache::storeBlob("behavior", blobKey1, blobKey2_,
                                 core::encodeBehaviorBundle(bundle));
            }
        }

        if (cached || selected) {
            {
                const Scope span(tracer, "core.infer", sample);
                artifact.inference =
                    core::inferIts(artifact.behavior, config_.infer);
            }
            out.inferenceOk = artifact.inference.ok();
            if (out.inferenceOk) {
                out.rank =
                    eval::rankOfFirstIts(artifact.inference.ranking, truth);
            }
            out.numFunctions = artifact.numFunctions;
            out.degraded = artifact.degraded;
        }
        if (workload_ == Workload::Taint && artifact.hasAnalysis())
            runEngines(tracer, sample, artifact, truth, out);
    }

    // Replays: pure kernels re-run on the sample's own inputs, outside
    // the sample span and outside the traced wall time.
    if (artifact.hasAnalysis()) {
        const Scope span(tracer, "analysis.reachdef", sample, true);
        const fw::AnalysisTarget &target = *artifact.target;
        std::size_t first = 0;
        for (std::size_t image = 0; image < freshImages.size(); ++image) {
            const std::size_t count =
                (image == 0 ? target.main : target.libraries[image - 1])
                    ->program.size();
            for (std::size_t k = first;
                 freshImages[image] && k < first + count; ++k) {
                const auto &fa = artifact.analysis->fns[k];
                analysis::ReachingDefs::analyze(fa.cfg, *fa.fn, fa.consts,
                                                fa.params.count);
                ++counters_.reachdefCalls;
            }
            first += count;
        }
    }
    const core::BehaviorRepr &repr = artifact.behavior;
    if (!repr.customFns.empty() && !repr.anchorFns.empty()) {
        // The matrix inferIts clusters: custom BFVs, max-abs scaled.
        ml::Matrix rows;
        rows.reserve(repr.customFns.size());
        for (analysis::FnId id : repr.customFns)
            rows.push_back(repr.records[id].bfv.toVector());
        const ml::Vec factors = ml::columnAbsMax(rows);
        for (auto &row : rows) {
            for (std::size_t c = 0; c < row.size(); ++c) {
                if (factors[c] != 0.0)
                    row[c] /= factors[c];
            }
        }
        counters_.dbscanRows += rows.size();
        counters_.dbscanDistinct +=
            std::set<ml::Vec>(rows.begin(), rows.end()).size();
        const Scope span(tracer, "mlkit.dbscan", sample, true);
        ml::dbscan(rows, config_.infer.dbscan);
    }
    return out;
}

void
Driver::runEngines(Tracer &tracer, int sample,
                   const core::PipelineArtifact &artifact,
                   const synth::GroundTruth &truth, SampleOutcome &out)
{
    // The harness's verification step: the top-3 candidates that
    // ground truth confirms become ITS sources.
    std::vector<taint::TaintSource> itsSources;
    const std::size_t considered =
        std::min<std::size_t>(3, artifact.inference.ranking.size());
    for (std::size_t i = 0; i < considered; ++i) {
        const ir::Addr entry = artifact.inference.ranking[i].entry;
        if (std::find(truth.itsFunctions.begin(), truth.itsFunctions.end(),
                      entry) != truth.itsFunctions.end()) {
            itsSources.push_back(
                taint::TaintSource::its(entry, support::hex(entry)));
        }
    }
    const auto cts = taint::classicalTaintSources();
    auto ctsPlusIts = cts;
    ctsPlusIts.insert(ctsPlusIts.end(), itsSources.begin(),
                      itsSources.end());

    const analysis::ProgramAnalysis &pa = *artifact.analysis;
    const taint::KaronteEngine karonte;
    const taint::StaEngine sta;
    const auto score = [&](const taint::TaintReport &report, bool its) {
        counters_.taintSteps += report.steps;
        const auto alerts = its ? report.filteredAlerts() : report.alerts;
        counters_.taintAlerts += alerts.size();
        return eval::scoreReport(alerts, truth, report.analysisMs);
    };
    for (const bool its : {false, true}) {
        const auto report = [&] {
            const Scope span(tracer, "taint.karonte", sample);
            return karonte.run(pa, its ? ctsPlusIts : cts);
        }();
        ++counters_.karonteRuns;
        counters_.karonteExhausted += report.budgetExhausted ? 1 : 0;
        (its ? out.karonteIts : out.karonte) = score(report, its);
    }
    for (const bool its : {false, true}) {
        const auto report = [&] {
            const Scope span(tracer, "taint.sta", sample);
            return sta.run(pa, its ? ctsPlusIts : cts);
        }();
        (its ? out.staIts : out.sta) = score(report, its);
    }
    out.taintOk = true;
}

/** The spans as Chrome trace-event JSON (chrome://tracing, Perfetto). */
bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out << (i == 0 ? "" : ",\n")
            << support::format(
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"sample\": %d, \"replay\": %s}}",
                   s.name.c_str(), layer.c_str(), s.startMs * 1000.0,
                   s.durMs() * 1000.0, i, s.parent, s.sample,
                   s.replay ? "true" : "false");
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: corpus_trace trace --workload cold|warm|taint "
                 "--seed N --seconds S\n"
                 "                          --cache-dir DIR --spans FILE\n"
                 "       corpus_trace write --seed N --out DIR\n");
    return 2;
}

int
cmdWrite(std::uint64_t seed, const std::string &dir)
{
    std::error_code ec;
    fsys::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s\n", dir.c_str());
        return 1;
    }
    const auto specs = corpusSpecs(seed);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto fw = synth::generateFirmware(specs[i]);
        const std::string path = dir + support::format("/s%02zu.fwimg", i);
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(fw.bytes.data()),
                  static_cast<std::streamsize>(fw.bytes.size()));
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
    }
    return 0;
}

int
cmdTrace(Workload workload, std::uint64_t seed, double seconds,
         const std::string &cacheDir, const std::string &spansPath)
{
    Driver driver(workload, seed, cacheDir);
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    do {
        passes.push_back(driver.runPass(static_cast<int>(passes.size())));
    } while (std::chrono::duration<double>(Clock::now() - start).count() <
             seconds);

    for (const auto &pass : passes) {
        if (pass.text != passes.front().text) {
            std::fprintf(stderr, "passes disagree on the report text\n");
            return 1;
        }
    }
    std::vector<std::size_t> order(passes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return passes[a].metrics.at("trace.wall_ms") <
               passes[b].metrics.at("trace.wall_ms");
    });
    const PassResult &median = passes[order[(order.size() - 1) / 2]];
    if (!writeSpans(spansPath, median.spans)) {
        std::fprintf(stderr, "cannot write %s\n", spansPath.c_str());
        return 1;
    }

    std::fputs(passes.front().text.c_str(), stdout);
    std::string json = support::format("{\"trace.passes\": %zu",
                                       passes.size());
    for (const auto &[name, value] : median.metrics)
        json += support::format(", \"%s\": %.17g", name.c_str(), value);
    std::printf("%s}\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc % 2 != 0)
        return usage();
    const std::string command = argv[1];
    std::string workload, cacheDir, spans, out;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 0);
        else if (flag == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (flag == "--cache-dir")
            cacheDir = value;
        else if (flag == "--spans")
            spans = value;
        else if (flag == "--out")
            out = value;
        else
            return usage();
    }

    if (command == "write" && !out.empty())
        return cmdWrite(seed, out);
    if (command != "trace" || cacheDir.empty() || spans.empty())
        return usage();
    // Stage budgets would make the results timing-dependent.
    if (core::StageBudgets{}.behaviorMs > 0.0) {
        std::fprintf(stderr, "unset FITS_STAGE_TIMEOUT_MS\n");
        return 2;
    }
    if (workload == "cold")
        return cmdTrace(Workload::Cold, seed, seconds, cacheDir, spans);
    if (workload == "warm")
        return cmdTrace(Workload::Warm, seed, seconds, cacheDir, spans);
    if (workload == "taint")
        return cmdTrace(Workload::Taint, seed, seconds, cacheDir, spans);
    return usage();
}
