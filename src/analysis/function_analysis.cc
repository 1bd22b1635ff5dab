#include "function_analysis.hh"

namespace fits::analysis {

namespace {

/** Whether fn holds an indirect Call or Jump: the only statements
 * whose targets the explorer resolves. */
bool
hasIndirectSite(const ir::Function &fn)
{
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (stmt.indirect && (stmt.kind == ir::StmtKind::Call ||
                                  stmt.kind == ir::StmtKind::Jump)) {
                return true;
            }
        }
    }
    return false;
}

} // namespace

FunctionAnalysis
FunctionAnalysis::analyze(const bin::BinaryImage &image,
                          const ir::Function &fn,
                          const UcseConfig &config)
{
    FunctionAnalysis fa;
    fa.image = &image;
    fa.fn = &fn;

    if (hasIndirectSite(fn)) {
        fa.ucse = UcseExplorer(image, config).explore(fn);
    } else if (!fn.blocks.empty()) {
        // Nothing to resolve, so the explorer could only return empty
        // target maps. Like it, check the deadline once on entry,
        // unless a zero step budget would stop it first.
        fa.ucse.deadlineExpired =
            config.maxSteps > 0 && config.deadline.expired();
    }

    fa.cfg = Cfg::build(fn, &fa.ucse.resolvedJumps);
    fa.loops = analyzeLoops(fa.cfg, fn);
    fa.consts = TmpConstMap::compute(fn, &image);
    fa.params = inferParams(fa.cfg, fn);
    fa.flow = ReachingDefs::analyze(fa.cfg, fn, fa.consts,
                                    fa.params.count, config.deadline);

    // Parameter dependence of loop-controlling branches (feature 7).
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        if (b >= fa.loops.controlsLoop.size() ||
            !fa.loops.controlsLoop[b]) {
            continue;
        }
        const auto &stmts = fn.blocks[b].stmts;
        for (std::size_t s = 0; s < stmts.size(); ++s) {
            if (stmts[s].kind == ir::StmtKind::Branch)
                fa.loopDepMask |= fa.flow.stmtDeps[b][s];
        }
    }

    return fa;
}

} // namespace fits::analysis
