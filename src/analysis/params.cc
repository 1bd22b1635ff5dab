#include "params.hh"

#include "analysis/scratch.hh"
#include "ir/types.hh"

namespace fits::analysis {

ParamInfo
inferParams(const Cfg &cfg, const ir::Function &fn)
{
    using ir::kNumArgRegs;
    const std::size_t n = fn.blocks.size();
    ParamInfo info;
    if (n == 0)
        return info;

    constexpr std::uint8_t kAll = (1u << kNumArgRegs) - 1;

    // writtenIn[b]: arg registers written on *all* paths from the entry
    // to the start of b (must-analysis, intersection at joins).
    auto &scratch = detail::scratch();
    auto &writtenIn = scratch.out;
    writtenIn.assign(n, kAll);
    writtenIn[cfg.entry()] = 0;

    // Per-block transfer: registers PUT anywhere in the block (once a
    // block both reads and writes, the read is handled in the use scan
    // below with intra-block ordering).
    auto &writeMask = scratch.cur;
    writeMask.assign(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == ir::StmtKind::Put &&
                stmt.reg < kNumArgRegs) {
                writeMask[b] |= static_cast<std::uint8_t>(1u << stmt.reg);
            }
            // A call clobbers the argument registers.
            if (stmt.kind == ir::StmtKind::Call)
                writeMask[b] = kAll;
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < n; ++b) {
            const std::uint8_t out =
                static_cast<std::uint8_t>(writtenIn[b] | writeMask[b]);
            for (std::size_t s : cfg.succs(b)) {
                const std::uint8_t merged =
                    static_cast<std::uint8_t>(writtenIn[s] & out);
                if (merged != writtenIn[s]) {
                    writtenIn[s] = merged;
                    changed = true;
                }
            }
        }
    }

    // Use scan with intra-block ordering, over the blocks reachable
    // from the entry.
    detail::postorder(cfg, scratch);
    for (std::size_t b = 0; b < n; ++b) {
        if (!scratch.seen[b])
            continue;
        std::uint8_t written = writtenIn[b];
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == ir::StmtKind::Get &&
                stmt.reg < kNumArgRegs) {
                const auto bit =
                    static_cast<std::uint8_t>(1u << stmt.reg);
                if ((written & bit) == 0)
                    info.usedMask |= bit;
            } else if (stmt.kind == ir::StmtKind::Put &&
                       stmt.reg < kNumArgRegs) {
                written |= static_cast<std::uint8_t>(1u << stmt.reg);
            } else if (stmt.kind == ir::StmtKind::Call) {
                written = kAll;
            }
        }
    }

    for (int i = 0; i < kNumArgRegs; ++i) {
        if (info.usedMask & (1u << i))
            info.count = i + 1;
    }
    return info;
}

} // namespace fits::analysis
