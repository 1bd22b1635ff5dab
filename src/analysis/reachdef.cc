#include "reachdef.hh"

#include <algorithm>
#include <cstring>

#include "analysis/scratch.hh"
#include "ir/types.hh"
#include "obs/metrics.hh"

namespace fits::analysis {

namespace {

using ir::kNumArgRegs;
using ir::kNumRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

using Mask = std::uint8_t;

} // namespace

ReachingDefs::Result
ReachingDefs::analyze(const Cfg &cfg, const ir::Function &fn,
                      const TmpConstMap &consts, int numParams,
                      support::Deadline deadline)
{
    const obs::ScopedTimer kernelTimer("kernel.reachdef");
    Result result;
    const std::size_t n = fn.blocks.size();
    result.stmtDeps.resize(n);
    for (std::size_t b = 0; b < n; ++b)
        result.stmtDeps[b].assign(fn.blocks[b].stmts.size(), 0);
    if (n == 0)
        return result;

    auto &scratch = detail::scratch();

    // One memory cell per distinct constant store address.
    auto &cells = scratch.cells;
    cells.clear();
    for (const auto &block : fn.blocks) {
        for (const Stmt &stmt : block.stmts) {
            if (stmt.kind != StmtKind::Store)
                continue;
            if (auto addr = consts.valueOf(stmt.a))
                cells.push_back(*addr);
        }
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());

    // Slots of one block state: each register twice, once including
    // the caller's entry values (all) and once with only values
    // written in the function (mat); each temporary; each constant
    // cell; the unknown-memory accumulator.
    const std::size_t all = 0;
    const std::size_t mat = all + kNumRegs;
    const std::size_t tmps = mat + kNumRegs;
    const std::size_t cellBase = tmps + fn.numTmps;
    const std::size_t unknown = cellBase + cells.size();
    const std::size_t width = unknown + 1;

    auto cellOf = [&](std::uint64_t addr) -> std::size_t {
        auto it = std::lower_bound(cells.begin(), cells.end(), addr);
        if (it == cells.end() || *it != addr)
            return width; // never stored: only unknown memory reaches
        return cellBase + static_cast<std::size_t>(it - cells.begin());
    };

    auto &entryIn = scratch.entryIn;
    entryIn.assign(width, 0);
    for (int i = 0; i < kNumArgRegs && i < numParams; ++i)
        entryIn[all + static_cast<std::size_t>(i)] =
            static_cast<Mask>(1u << i);

    auto &out = scratch.out;
    out.assign(n * width, 0);
    auto &cur = scratch.cur;
    cur.resize(width);

    // Transfer one block from its IN (already in `cur`), writing every
    // statement's mask into stmtDeps.
    auto transfer = [&](std::size_t b) {
        Mask *state = cur.data();
        auto tmp = [&](const Operand &op) -> Mask {
            return op.isTmp() ? state[tmps + op.tmp] : Mask{0};
        };
        const auto &stmts = fn.blocks[b].stmts;
        for (std::size_t s = 0; s < stmts.size(); ++s) {
            const Stmt &stmt = stmts[s];
            Mask m = 0;
            switch (stmt.kind) {
              case StmtKind::Get:
                m = state[all + stmt.reg];
                state[tmps + stmt.dst] = m;
                break;
              case StmtKind::Put:
                m = tmp(stmt.a);
                state[all + stmt.reg] = m;
                state[mat + stmt.reg] = m;
                break;
              case StmtKind::Const:
                state[tmps + stmt.dst] = 0;
                break;
              case StmtKind::Binop:
                m = tmp(stmt.a) | tmp(stmt.b);
                state[tmps + stmt.dst] = m;
                break;
              case StmtKind::Load:
                m = tmp(stmt.a) | state[unknown];
                if (auto addr = consts.valueOf(stmt.a)) {
                    const std::size_t cell = cellOf(*addr);
                    if (cell != width)
                        m |= state[cell];
                } else {
                    // Unknown address: may read any memory cell.
                    for (std::size_t c = cellBase; c < unknown; ++c)
                        m |= state[c];
                }
                state[tmps + stmt.dst] = m;
                break;
              case StmtKind::Store:
                m = tmp(stmt.a) | tmp(stmt.b);
                if (auto addr = consts.valueOf(stmt.a))
                    state[cellOf(*addr)] = m;
                else
                    state[unknown] |= m;
                break;
              case StmtKind::Call:
                // Explicitly materialized arguments only.
                for (int r = 0; r < kNumArgRegs; ++r)
                    m |= state[mat + static_cast<std::size_t>(r)];
                if (stmt.indirect)
                    m |= tmp(stmt.a);
                state[all + ir::kRetReg] = m;
                state[mat + ir::kRetReg] = m;
                state[unknown] |= m;
                break;
              case StmtKind::Branch:
                m = tmp(stmt.a);
                break;
              case StmtKind::Jump:
                if (stmt.indirect)
                    m = tmp(stmt.a);
                break;
              case StmtKind::Ret:
                m = state[all + ir::kRetReg];
                break;
            }
            result.stmtDeps[b][s] = m;
        }
    };

    // Worklist in reverse post-order: a block is processed again
    // whenever a predecessor's OUT changes, so its last visit sees its
    // final IN and writes its final statement masks. Every transfer is
    // OR-linear and monotone, so this reaches the least fixpoint.
    // Blocks unreachable from the entry are processed too, from an
    // empty IN unless some predecessor feeds them.
    detail::postorder(cfg, scratch);
    auto &order = scratch.order;
    std::reverse(order.begin(), order.end());
    for (std::size_t b = 0; b < n; ++b) {
        if (!scratch.seen[b])
            order.push_back(b);
    }
    auto &dirty = scratch.dirty;
    dirty.assign(n, 1);
    std::size_t tick = 0;
    for (bool again = true; again && !result.deadlineExpired;) {
        again = false;
        for (std::size_t b : order) {
            if (!dirty[b])
                continue;
            if (deadline.expiredCoarse(tick++)) {
                result.deadlineExpired = true;
                break;
            }
            dirty[b] = 0;

            if (b == cfg.entry())
                cur = entryIn;
            else
                std::fill(cur.begin(), cur.end(), Mask{0});
            for (std::size_t p : cfg.preds(b)) {
                const Mask *po = &out[p * width];
                for (std::size_t i = 0; i < width; ++i)
                    cur[i] |= po[i];
            }
            transfer(b);

            Mask *bo = &out[b * width];
            if (std::memcmp(bo, cur.data(), width) != 0) {
                std::memcpy(bo, cur.data(), width);
                for (std::size_t succ : cfg.succs(b)) {
                    dirty[succ] = 1;
                    again = true;
                }
            }
        }
    }

    // Branch dependence summary.
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t s = 0; s < fn.blocks[b].stmts.size(); ++s) {
            if (fn.blocks[b].stmts[s].kind == StmtKind::Branch)
                result.branchDepMask |= result.stmtDeps[b][s];
        }
    }

    return result;
}

} // namespace fits::analysis
