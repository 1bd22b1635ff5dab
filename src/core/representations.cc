#include "representations.hh"

namespace fits::core {

namespace {

struct StmtCounts
{
    double stmts = 0;
    double calls = 0;
    double consts = 0;
    double loads = 0;
    double stores = 0;
    double arith = 0;
    double compares = 0;
    double branches = 0;
};

StmtCounts
countStmts(const ir::Function &fn)
{
    StmtCounts c;
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            ++c.stmts;
            switch (stmt.kind) {
              case ir::StmtKind::Call:
                ++c.calls;
                break;
              case ir::StmtKind::Const:
                ++c.consts;
                break;
              case ir::StmtKind::Load:
                ++c.loads;
                break;
              case ir::StmtKind::Store:
                ++c.stores;
                break;
              case ir::StmtKind::Binop:
                if (ir::isComparison(stmt.op))
                    ++c.compares;
                else
                    ++c.arith;
                break;
              case ir::StmtKind::Branch:
                ++c.branches;
                break;
              default:
                break;
            }
        }
    }
    return c;
}

} // namespace

ml::Vec
augmentedCfgVector(const analysis::FunctionAnalysis &fa)
{
    const StmtCounts c = countStmts(*fa.fn);
    const double blocks = static_cast<double>(fa.fn->blocks.size());
    double maxOutDeg = 0.0;
    for (std::size_t b = 0; b < fa.cfg.numBlocks(); ++b) {
        maxOutDeg = std::max(
            maxOutDeg, static_cast<double>(fa.cfg.succs(b).size()));
    }
    return {
        blocks,
        static_cast<double>(fa.cfg.numEdges()),
        static_cast<double>(fa.loops.backEdges.size()),
        c.stmts,
        blocks > 0 ? c.stmts / blocks : 0.0,
        maxOutDeg,
        c.calls,
        c.consts,
        c.loads,
        c.stores,
    };
}

ml::Vec
attributedCfgVector(const analysis::FunctionAnalysis &fa)
{
    const StmtCounts c = countStmts(*fa.fn);
    return {
        c.stmts,
        c.arith,
        c.compares,
        c.calls,
        c.branches,
        c.loads + c.stores,
        c.consts,
        static_cast<double>(fa.fn->blocks.size()),
        static_cast<double>(fa.cfg.numEdges()),
    };
}

} // namespace fits::core
