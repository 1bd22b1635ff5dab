/**
 * @file
 * Micro-benchmarks (google-benchmark) of the analysis primitives the
 * FITS pipeline is built on: the sample byte path (payload hashing,
 * FWIMG pack/unpack, FBIN write/load, behavior-bundle decode), UCSE
 * exploration, CFG + loop analysis, reaching definitions, the call
 * graph, Table-2 backtracking, DBSCAN, Eq.-2 scoring, and STA runs.
 * These are the ingredients whose costs compose into the Figure 4
 * curves.
 */

#include <benchmark/benchmark.h>

#include "analysis/program_analysis.hh"
#include "obs/bench_record.hh"
#include "obs/metrics.hh"
#include "binary/fbin.hh"
#include "core/behavior.hh"
#include "core/behavior_io.hh"
#include "core/infer.hh"
#include "core/pipeline.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "mlkit/dbscan.hh"
#include "mlkit/scaling.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/sta.hh"

namespace {

using namespace fits;

/** One mid-size sample shared by all micro-benchmarks. */
const synth::GeneratedFirmware &
sample()
{
    static const synth::GeneratedFirmware fw = [] {
        synth::SampleSpec spec;
        spec.profile = synth::tendaProfile();
        spec.profile.minCustomFns = 600;
        spec.profile.maxCustomFns = 700;
        spec.product = "AC9";
        spec.version = "V1";
        spec.seed = 0xbe9c;
        return synth::generateFirmware(spec);
    }();
    return fw;
}

const fw::AnalysisTarget &
target()
{
    static const fw::AnalysisTarget t = [] {
        auto unpacked = fw::unpackFirmware(sample().bytes);
        return fw::selectAnalysisTarget(
                   unpacked.value().filesystem)
            .take();
    }();
    return t;
}

void
BM_FirmwareUnpack(benchmark::State &state)
{
    for (auto _ : state) {
        auto unpacked = fw::unpackFirmware(sample().bytes);
        benchmark::DoNotOptimize(unpacked);
    }
}
BENCHMARK(BM_FirmwareUnpack);

void
BM_Hash64(benchmark::State &state)
{
    const auto &bytes = sample().bytes;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            support::hash64(bytes.data(), bytes.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Hash64);

void
BM_Fnv1a(benchmark::State &state)
{
    const auto &bytes = sample().bytes;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            support::fnv1a(bytes.data(), bytes.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Fnv1a);

void
BM_FirmwarePack(benchmark::State &state)
{
    const auto image = fw::unpackFirmware(sample().bytes).take();
    for (auto _ : state) {
        auto bytes = fw::packFirmware(image,
                                      sample().spec.profile.bootPadding);
        benchmark::DoNotOptimize(bytes);
    }
}
BENCHMARK(BM_FirmwarePack);

void
BM_FbinWrite(benchmark::State &state)
{
    const bin::BinaryImage &main = *target().main;
    for (auto _ : state) {
        auto bytes = bin::writeBinary(main);
        benchmark::DoNotOptimize(bytes);
    }
}
BENCHMARK(BM_FbinWrite);

void
BM_BehaviorBundleDecode(benchmark::State &state)
{
    const auto artifact = core::FitsPipeline().analyze(sample().bytes);
    core::BehaviorBundle bundle;
    bundle.imageInfo = artifact.imageInfo;
    bundle.binaryName = artifact.binaryName;
    bundle.numFunctions = artifact.numFunctions;
    bundle.binaryBytes = artifact.binaryBytes;
    bundle.behavior = artifact.behavior;
    const std::string payload = core::encodeBehaviorBundle(bundle);
    for (auto _ : state) {
        auto decoded = core::decodeBehaviorBundle(payload);
        benchmark::DoNotOptimize(decoded);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_BehaviorBundleDecode);

void
BM_FbinLoad(benchmark::State &state)
{
    auto unpacked = fw::unpackFirmware(sample().bytes);
    const fw::FileEntry *entry = nullptr;
    for (const auto &f : unpacked.value().filesystem.files()) {
        if (f.type == fw::FileType::Executable &&
            f.path != "bin/busybox") {
            entry = &f;
        }
    }
    for (auto _ : state) {
        auto image = bin::loadBinary(entry->bytes);
        benchmark::DoNotOptimize(image);
    }
}
BENCHMARK(BM_FbinLoad);

void
BM_UcsePerFunction(benchmark::State &state)
{
    const auto &t = target();
    const analysis::UcseExplorer explorer(*t.main);
    std::size_t i = 0;
    const auto &fns = t.main->program.functions();
    for (auto _ : state) {
        auto result = explorer.explore(fns[i++ % fns.size()]);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_UcsePerFunction);

void
BM_FunctionAnalysis(benchmark::State &state)
{
    const auto &t = target();
    std::size_t i = 0;
    const auto &fns = t.main->program.functions();
    for (auto _ : state) {
        auto fa = analysis::FunctionAnalysis::analyze(
            *t.main, fns[i++ % fns.size()]);
        benchmark::DoNotOptimize(fa);
    }
}
BENCHMARK(BM_FunctionAnalysis);

void
BM_WholeProgramAnalysis(benchmark::State &state)
{
    const auto &t = target();
    for (auto _ : state) {
        const analysis::LinkedProgram linked(*t.main, t.libraries);
        auto pa = analysis::ProgramAnalysis::analyze(linked);
        benchmark::DoNotOptimize(pa);
    }
}
BENCHMARK(BM_WholeProgramAnalysis);

void
BM_BehaviorExtraction(benchmark::State &state)
{
    const auto &t = target();
    const analysis::LinkedProgram linked(*t.main, t.libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const core::BehaviorAnalyzer analyzer;
    for (auto _ : state) {
        auto repr = analyzer.analyze(pa);
        benchmark::DoNotOptimize(repr);
    }
}
BENCHMARK(BM_BehaviorExtraction);

void
BM_InferIts(benchmark::State &state)
{
    const auto &t = target();
    const analysis::LinkedProgram linked(*t.main, t.libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const core::BehaviorAnalyzer analyzer;
    const auto repr = analyzer.analyze(pa);
    for (auto _ : state) {
        auto result = core::inferIts(repr);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_InferIts);

void
BM_ReachingDefs(benchmark::State &state)
{
    const auto &t = target();
    // Everything upstream of the reach-defs kernel (UCSE for resolved
    // jumps, CFG, constants, parameter count) is computed once; the
    // timed loop re-runs only the worklist fixpoint.
    struct Prep
    {
        const ir::Function *fn;
        analysis::Cfg cfg;
        analysis::TmpConstMap consts;
        int numParams;
    };
    std::vector<Prep> preps;
    for (const auto &fn : t.main->program.functions()) {
        auto fa = analysis::FunctionAnalysis::analyze(*t.main, fn);
        preps.push_back({&fn, std::move(fa.cfg),
                         std::move(fa.consts), fa.params.count});
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const Prep &p = preps[i++ % preps.size()];
        auto flow = analysis::ReachingDefs::analyze(
            p.cfg, *p.fn, p.consts, p.numParams);
        benchmark::DoNotOptimize(flow);
    }
}
BENCHMARK(BM_ReachingDefs);

/** The shared sample's linked program and whole-program analysis. */
const analysis::ProgramAnalysis &
programAnalysis()
{
    static const analysis::LinkedProgram linked(*target().main,
                                                target().libraries);
    static const analysis::ProgramAnalysis pa =
        analysis::ProgramAnalysis::analyze(linked);
    return pa;
}

/** The CTS set, or the CTS set plus the sample's true ITSs. */
std::vector<taint::TaintSource>
staSources(bool its)
{
    auto sources = taint::classicalTaintSources();
    if (its) {
        for (ir::Addr entry : sample().truth.itsFunctions)
            sources.push_back(
                taint::TaintSource::its(entry, support::hex(entry)));
    }
    return sources;
}

void
BM_CallGraphBuild(benchmark::State &state)
{
    const auto &pa = programAnalysis();
    std::vector<const analysis::UcseTargets *> ucse;
    for (const auto &fa : pa.fns)
        ucse.push_back(&fa.ucse);
    for (auto _ : state) {
        auto cg = analysis::CallGraph::build(*pa.linked, &ucse);
        benchmark::DoNotOptimize(cg);
    }
}
BENCHMARK(BM_CallGraphBuild);

void
BM_StaRun(benchmark::State &state, bool its)
{
    const auto &pa = programAnalysis();
    const auto sources = staSources(its);
    const taint::StaEngine sta;
    for (auto _ : state) {
        auto report = sta.run(pa, sources);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK_CAPTURE(BM_StaRun, cts, false);
BENCHMARK_CAPTURE(BM_StaRun, cts_its, true);

/** The first standard-corpus sample's custom-function BFVs, max-abs
 * scaled: the matrix core::inferIts clusters. Corpus-wide only 3.4 %
 * of these rows are distinct. */
ml::Matrix
corpusSampleBfvs()
{
    const auto fw = synth::generateFirmware(synth::standardDataset().front());
    const auto artifact = core::FitsPipeline().analyze(fw.bytes);
    ml::Matrix custom;
    for (analysis::FnId id : artifact.behavior.customFns)
        custom.push_back(artifact.behavior.records[id].bfv.toVector());
    return ml::maxAbsScale(custom);
}

/** 800 uniform-random 11-dimensional rows: no duplicates at all. */
ml::Matrix
uniformRows()
{
    support::Rng rng(7);
    ml::Matrix points;
    for (int i = 0; i < 800; ++i) {
        ml::Vec row(11);
        for (auto &v : row)
            v = rng.uniformReal();
        points.push_back(std::move(row));
    }
    return points;
}

/** The DBSCAN kernel on the row-major block inference hands it. */
void
BM_Dbscan(benchmark::State &state, ml::Matrix (*input)())
{
    const ml::Matrix points = input();
    const std::vector<double> rows = ml::flatten(points);
    const ml::DbscanConfig config = core::InferConfig{}.dbscan;
    for (auto _ : state) {
        auto clusters = ml::dbscan(rows, ml::columns(points), config);
        benchmark::DoNotOptimize(clusters);
    }
    state.counters["rows"] = static_cast<double>(points.size());
}
BENCHMARK_CAPTURE(BM_Dbscan, corpus_bfv, corpusSampleBfvs);
BENCHMARK_CAPTURE(BM_Dbscan, uniform_800x11, uniformRows);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    const std::size_t run = benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // One obs-instrumented pass over the shared sample captures the
    // hot-kernel spans (kernel.reachdef from whole-program analysis,
    // kernel.cluster / kernel.rank from inference) so BENCH_micro.json
    // records their absolute cost alongside the benchmark rates.
    fits::obs::Registry::instance().reset();
    fits::obs::setEnabled(true);
    {
        const auto &t = target();
        const fits::analysis::LinkedProgram linked(*t.main,
                                                   t.libraries);
        const auto pa = fits::analysis::ProgramAnalysis::analyze(linked);
        const fits::core::BehaviorAnalyzer analyzer;
        const auto repr = analyzer.analyze(pa);
        auto result = fits::core::inferIts(repr);
        benchmark::DoNotOptimize(result);
    }
    fits::obs::setEnabled(false);
    const auto snapshot = fits::obs::Registry::instance().snapshot();

    fits::obs::BenchRecord record("micro");
    record.add("benchmarks_run", static_cast<double>(run));
    // STA's fixpoint steps on the shared sample, CTS and CTS+ITS runs
    // together: a deterministic count, unlike the timings.
    {
        std::size_t staSteps = 0;
        for (const bool its : {false, true})
            staSteps += fits::taint::StaEngine()
                            .run(programAnalysis(), staSources(its))
                            .steps;
        record.add("sta_steps", static_cast<double>(staSteps));
    }
    const auto addKernel = [&](const std::string &key,
                               const std::string &span) {
        // Spans nest under their parent ("cluster/kernel.cluster"),
        // so match the leaf name anywhere in the hierarchy.
        for (const auto &[name, view] : snapshot.timers) {
            if (name != span &&
                (name.size() <= span.size() ||
                 name.compare(name.size() - span.size() - 1,
                              std::string::npos,
                              "/" + span) != 0)) {
                continue;
            }
            record.add(key + "_ms", view.totalMs);
            record.add(key + "_calls",
                       static_cast<double>(view.count));
            return;
        }
    };
    addKernel("kernel_reachdef", "kernel.reachdef");
    addKernel("kernel_cluster", "kernel.cluster");
    addKernel("kernel_rank", "kernel.rank");
    record.write();
    return 0;
}
