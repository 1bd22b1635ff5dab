#include "constmap.hh"

namespace fits::analysis {

TmpConstMap
TmpConstMap::compute(const ir::Function &fn, const bin::BinaryImage *image)
{
    TmpConstMap map;
    map.slots_.resize(fn.numTmps);

    // Phase 1: temporaries with more than one definition are never
    // treated as constant (flow-insensitivity would conflate paths).
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (!stmt.definesTmp())
                continue;
            if (stmt.dst >= map.slots_.size())
                map.slots_.resize(stmt.dst + std::size_t{1});
            Slot &slot = map.slots_[stmt.dst];
            if (slot.defs < 2)
                ++slot.defs;
        }
    }

    // Phase 2: fold single-definition temporaries to a fixpoint. A
    // Binop/Load may only fold after its inputs did, so iterate until
    // no new values appear.
    auto fold = [&map](ir::TmpId t, std::uint64_t value) {
        map.slots_[t].value = value;
        map.slots_[t].folded = true;
        ++map.known_;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &block : fn.blocks) {
            for (const auto &stmt : block.stmts) {
                if (!stmt.definesTmp())
                    continue;
                const Slot &slot = map.slots_[stmt.dst];
                if (slot.defs > 1 || slot.folded)
                    continue;
                switch (stmt.kind) {
                  case ir::StmtKind::Const:
                    fold(stmt.dst, stmt.a.imm);
                    changed = true;
                    break;
                  case ir::StmtKind::Binop: {
                    auto lhs = map.valueOf(stmt.a);
                    auto rhs = map.valueOf(stmt.b);
                    if (lhs && rhs) {
                        fold(stmt.dst,
                             ir::evalBinOp(stmt.op, *lhs, *rhs));
                        changed = true;
                    }
                    break;
                  }
                  case ir::StmtKind::Load: {
                    // Only read-only memory is stable enough to fold.
                    auto addr = map.valueOf(stmt.a);
                    if (addr && image != nullptr &&
                        image->isRodata(*addr)) {
                        if (auto word = image->readWord(*addr)) {
                            fold(stmt.dst, *word);
                            changed = true;
                        }
                    }
                    break;
                  }
                  default:
                    break; // Get never folds
                }
            }
        }
    }

    return map;
}

std::optional<std::uint64_t>
TmpConstMap::valueOf(ir::TmpId t) const
{
    if (t >= slots_.size() || !slots_[t].folded)
        return std::nullopt;
    return slots_[t].value;
}

std::optional<std::uint64_t>
TmpConstMap::valueOf(const ir::Operand &op) const
{
    if (op.isImm())
        return op.imm;
    return valueOf(op.tmp);
}

} // namespace fits::analysis
