#include "function_analysis.hh"

namespace fits::analysis {

FunctionAnalysis
FunctionAnalysis::analyze(const bin::BinaryImage &image,
                          const ir::Function &fn,
                          const UcseConfig &config)
{
    FunctionAnalysis fa;
    fa.image = &image;
    fa.fn = &fn;

    UcseExplorer explorer(image, config);
    fa.ucse = explorer.explore(fn);

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
