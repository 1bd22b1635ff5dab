/**
 * @file
 * Micro-benchmarks (google-benchmark) of the analysis primitives the
 * FITS pipeline is built on: FBIN decode/lift, UCSE exploration, CFG +
 * loop analysis, reaching definitions, Table-2 backtracking, DBSCAN,
 * and Eq.-2 scoring. These are the ingredients whose costs compose
 * into the Figure 4 curves.
 */

#include <benchmark/benchmark.h>

#include "analysis/program_analysis.hh"
#include "obs/bench_record.hh"
#include "obs/metrics.hh"
#include "binary/fbin.hh"
#include "core/behavior.hh"
#include "core/infer.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "mlkit/dbscan.hh"
#include "support/rng.hh"
#include "synth/firmware_gen.hh"

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

void
BM_Dbscan(benchmark::State &state)
{
    support::Rng rng(7);
    ml::Matrix points;
    for (int i = 0; i < 800; ++i) {
        ml::Vec row(11);
        for (auto &v : row)
            v = rng.uniformReal();
        points.push_back(std::move(row));
    }
    const ml::DbscanConfig config{0.35, 3, ml::Metric::Euclidean};
    for (auto _ : state) {
        auto clusters = ml::dbscan(points, config);
        benchmark::DoNotOptimize(clusters);
    }
}
BENCHMARK(BM_Dbscan);

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
