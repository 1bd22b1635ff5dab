/** @file Oracle test of the flat per-function analysis products and
 * the call graph: the compressed-sparse-row Cfg and CallGraph, the
 * dense TmpConstMap, the flat-stack UCSE explorer, and the loop and
 * parameter kernels with per-thread scratch must equal the reference
 * implementations in reference_analysis.cc on every function of the
 * corpus under seeds 0, 1 and 7, and on a seeded sweep of random
 * functions. FunctionAnalysis explores only functions with an indirect
 * site, so the corpus check explores every function itself and also
 * requires the pipeline's targets to equal that full exploration's. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/program_analysis.hh"
#include "corpus_seeds.hh"
#include "eval/corpus_runner.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "random_function.hh"
#include "reference_analysis.hh"

namespace fits {
namespace {

using analysis::FnId;

/** The first difference between the products of one function, or
 * an empty string. */
std::string
compareFunction(const bin::BinaryImage &image, const ir::Function &fn,
                const analysis::UcseResult &ucse,
                const analysis::Cfg &cfg, const analysis::LoopInfo &loops,
                const analysis::TmpConstMap &consts,
                const analysis::ParamInfo &params)
{
    const auto refUcse = reference::explore(image, fn);
    if (ucse.resolvedCalls != refUcse.resolvedCalls)
        return "ucse resolved calls";
    if (ucse.resolvedJumps != refUcse.resolvedJumps)
        return "ucse resolved jumps";
    if (ucse.reachedBlocks != refUcse.reachedBlocks)
        return "ucse reached blocks";
    if (ucse.steps != refUcse.steps ||
        ucse.budgetExhausted != refUcse.budgetExhausted ||
        ucse.deadlineExpired != refUcse.deadlineExpired) {
        return "ucse steps or budget";
    }

    const auto refCfg = reference::Cfg::build(fn, &refUcse.resolvedJumps);
    if (cfg.numBlocks() != refCfg.numBlocks())
        return "cfg block count";
    std::size_t edges = 0;
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!std::ranges::equal(cfg.succs(b), refCfg.succs[b]))
            return "cfg successors of block " + std::to_string(b);
        if (!std::ranges::equal(cfg.preds(b), refCfg.preds[b]))
            return "cfg predecessors of block " + std::to_string(b);
        edges += refCfg.succs[b].size();
    }
    if (cfg.numEdges() != edges)
        return "cfg edge count";
    if (cfg.reachable() != refCfg.reachable())
        return "cfg reachable blocks";

    const auto refLoops = reference::analyzeLoops(refCfg, fn);
    if (loops.idom != refLoops.idom)
        return "immediate dominators";
    if (loops.backEdges != refLoops.backEdges)
        return "back edges";
    if (loops.inLoop != refLoops.inLoop)
        return "loop bodies";
    if (loops.controlsLoop != refLoops.controlsLoop)
        return "loop-controlling blocks";

    const auto refConsts = reference::TmpConstMap::compute(fn, &image);
    if (consts.knownCount() != refConsts.values.size())
        return "constant count";
    for (ir::TmpId t = 0; t < fn.numTmps + 2; ++t) {
        if (consts.valueOf(t) != refConsts.valueOf(t))
            return "constant of t" + std::to_string(t);
    }

    const auto refParams = reference::inferParams(refCfg, fn);
    if (params.usedMask != refParams.usedMask ||
        params.count != refParams.count) {
        return "parameters";
    }
    return {};
}

/** The products the library computes for fn, compared. */
std::string
analyzeAndCompare(const bin::BinaryImage &image, const ir::Function &fn)
{
    const auto ucse = analysis::UcseExplorer(image).explore(fn);
    const auto cfg = analysis::Cfg::build(fn, &ucse.resolvedJumps);
    return compareFunction(image, fn, ucse, cfg,
                           analysis::analyzeLoops(cfg, fn),
                           analysis::TmpConstMap::compute(fn, &image),
                           analysis::inferParams(cfg, fn));
}

/** The first difference between the targets FunctionAnalysis kept
 * and those of a full exploration, or an empty string. */
std::string
compareTargets(const analysis::UcseTargets &kept,
               const analysis::UcseResult &full)
{
    if (kept.resolvedCalls != full.resolvedCalls)
        return "kept resolved calls";
    if (kept.resolvedJumps != full.resolvedJumps)
        return "kept resolved jumps";
    if (kept.deadlineExpired != full.deadlineExpired)
        return "kept deadline flag";
    return {};
}

/** The call graph of pa against the reference one built from full
 * explorations of every function (ucse, in FnId order). */
std::string
compareCallGraph(const analysis::ProgramAnalysis &pa,
                 const std::vector<analysis::UcseResult> &ucse)
{
    const auto &linked = *pa.linked;
    std::unordered_map<FnId, const analysis::UcseTargets *> ucseByFn;
    for (FnId id = 0; id < linked.fnCount(); ++id)
        ucseByFn[id] = &ucse[id];
    const auto ref = reference::CallGraph::build(linked, &ucseByFn);
    const auto &cg = pa.callGraph;

    if (cg.sites().size() != ref.sites.size())
        return "site count";
    for (std::size_t i = 0; i < ref.sites.size(); ++i) {
        const auto &a = cg.sites()[i];
        const auto &b = ref.sites[i];
        if (a.caller != b.caller || a.blockIdx != b.blockIdx ||
            a.stmtIdx != b.stmtIdx || a.stmtAddr != b.stmtAddr ||
            a.indirect != b.indirect || a.target.kind != b.target.kind ||
            a.target.fn != b.target.fn || a.target.name != b.target.name ||
            a.target.library != b.target.library) {
            return "site " + std::to_string(i);
        }
    }
    for (FnId id = 0; id < linked.fnCount(); ++id) {
        const std::string fn = " of fn " + std::to_string(id);
        if (!std::ranges::equal(cg.sitesOfCaller(id),
                                ref.sitesOfCaller(id))) {
            return "sites" + fn;
        }
        if (!std::ranges::equal(cg.sitesOfCallee(id),
                                ref.sitesOfCallee(id))) {
            return "sites calling" + fn;
        }
        if (cg.callerSiteCount(id) != ref.sitesOfCallee(id).size())
            return "caller site count" + fn;
        if (cg.distinctCallerCount(id) != ref.distinctCallerCount(id))
            return "distinct caller count" + fn;
        if (cg.libraryCallCount(id) != ref.libraryCallCount(id))
            return "library call count" + fn;
    }
    return {};
}

struct Checked
{
    std::size_t functions = 0;
    std::string mismatch;
};

void
checkCorpus(std::uint64_t seed)
{
    const auto specs = test_support::seededSpecs(seed);
    const auto checked = eval::CorpusRunner().map<Checked>(
        specs.size(),
        [&](std::size_t i) {
            Checked out;
            const auto fw = synth::generateFirmware(specs[i]);
            auto unpacked = fw::unpackFirmware(fw.bytes);
            if (!unpacked)
                return out;
            auto target =
                fw::selectAnalysisTarget(unpacked.value().filesystem);
            if (!target)
                return out;
            const analysis::LinkedProgram linked(
                *target.value().main, target.value().libraries);
            const auto pa = analysis::ProgramAnalysis::analyze(linked);
            const std::string where = specs[i].name + ": ";
            std::vector<analysis::UcseResult> ucse;
            ucse.reserve(pa.fns.size());
            for (const auto &fa : pa.fns) {
                ++out.functions;
                ucse.push_back(
                    analysis::UcseExplorer(*fa.image).explore(*fa.fn));
                std::string diff = compareTargets(fa.ucse, ucse.back());
                if (diff.empty()) {
                    diff = compareFunction(*fa.image, *fa.fn, ucse.back(),
                                           fa.cfg, fa.loops, fa.consts,
                                           fa.params);
                }
                if (!diff.empty()) {
                    out.mismatch = where + "fn " +
                                   std::to_string(fa.fn->entry) + ": " +
                                   diff;
                    return out;
                }
            }
            const std::string diff = compareCallGraph(pa, ucse);
            if (!diff.empty())
                out.mismatch = where + "call graph: " + diff;
            return out;
        },
        [&](std::size_t i, const std::string &error) {
            Checked out;
            out.mismatch = specs[i].name + ": " + error;
            return out;
        });

    std::size_t functions = 0;
    for (const auto &c : checked) {
        functions += c.functions;
        EXPECT_TRUE(c.mismatch.empty()) << "seed " << seed << ": "
                                        << c.mismatch;
    }
    // 55 of the 59 samples select a binary; each has many functions.
    EXPECT_GT(functions, 10000u) << "seed " << seed;
}

TEST(AnalysisKernelOracle, MatchesReferenceOnCorpusSeed0)
{
    checkCorpus(0);
}

TEST(AnalysisKernelOracle, MatchesReferenceOnCorpusSeed1)
{
    checkCorpus(1);
}

TEST(AnalysisKernelOracle, MatchesReferenceOnCorpusSeed7)
{
    checkCorpus(7);
}

TEST(AnalysisKernelOracle, MatchesReferenceOnRandomFunctions)
{
    // How often each shape occurred, so a generator change cannot
    // silently stop exercising one.
    std::size_t emptyBlocks = 0, zeroBlockFns = 0, resolvedJumps = 0,
                unresolvedJumps = 0, loops = 0, folded = 0,
                redefined = 0;
    const bin::BinaryImage image;
    support::Rng rng(0x0ac1e);
    for (int i = 0; i < 3000; ++i) {
        ir::Function fn = test_support::randomFunction(rng);
        if (i % 100 == 0) {
            fn.blocks.clear();
        } else {
            // Empty some blocks; their addresses stay distinct. Point
            // some immediate indirect jumps at real blocks, so the
            // CFG gains UCSE-resolved edges. Give some temporaries a
            // second definition, which keeps them from being constant.
            for (auto &block : fn.blocks) {
                if (rng.chance(0.1))
                    block.stmts.clear();
                for (auto &stmt : block.stmts) {
                    if (stmt.definesTmp() && fn.numTmps > 0 &&
                        rng.chance(0.05)) {
                        stmt.dst = static_cast<ir::TmpId>(
                            rng.index(fn.numTmps));
                        ++redefined;
                    }
                    if (stmt.kind == ir::StmtKind::Jump && stmt.indirect &&
                        stmt.a.isImm() && rng.chance(0.5)) {
                        stmt.a.imm = fn.blocks[rng.index(fn.blocks.size())]
                                         .addr;
                    }
                }
            }
        }

        const std::string diff = analyzeAndCompare(image, fn);
        ASSERT_TRUE(diff.empty()) << "function " << i << ": " << diff;

        const auto ucse = analysis::UcseExplorer(image).explore(fn);
        zeroBlockFns += fn.blocks.empty();
        for (const auto &block : fn.blocks) {
            emptyBlocks += block.stmts.empty();
            const ir::Stmt *term = block.terminator();
            if (term != nullptr && term->kind == ir::StmtKind::Jump &&
                term->indirect) {
                const bool resolved = ucse.resolvedJumps.count(
                    block.stmtAddr(block.stmts.size() - 1));
                resolvedJumps += resolved;
                unresolvedJumps += !resolved;
            }
        }
        const auto cfg = analysis::Cfg::build(fn, &ucse.resolvedJumps);
        loops += analysis::analyzeLoops(cfg, fn).hasLoop();
        folded += analysis::TmpConstMap::compute(fn, &image).knownCount();
    }
    EXPECT_GT(emptyBlocks, 0u);
    EXPECT_GT(zeroBlockFns, 0u);
    EXPECT_GT(resolvedJumps, 0u);
    EXPECT_GT(unresolvedJumps, 0u);
    EXPECT_GT(loops, 0u);
    EXPECT_GT(folded, 0u);
    EXPECT_GT(redefined, 0u);
}

} // namespace
} // namespace fits
