#include "reachdef.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "ir/types.hh"
#include "obs/metrics.hh"

namespace fits::analysis {

namespace {

using ir::kNumArgRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

/** Dense bitset over definition ids. */
class DefSet
{
  public:
    explicit DefSet(std::size_t bits = 0)
        : words_((bits + 63) / 64, 0)
    {}

    void
    set(std::size_t i)
    {
        words_[i / 64] |= 1ULL << (i % 64);
    }

    void
    clear(std::size_t i)
    {
        words_[i / 64] &= ~(1ULL << (i % 64));
    }

    bool
    test(std::size_t i) const
    {
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    /** this |= other; returns true if this changed. */
    bool
    unionWith(const DefSet &other)
    {
        bool changed = false;
        for (std::size_t w = 0; w < words_.size(); ++w) {
            const std::uint64_t merged = words_[w] | other.words_[w];
            if (merged != words_[w]) {
                words_[w] = merged;
                changed = true;
            }
        }
        return changed;
    }

    /** this &= ~other. */
    void
    subtract(const DefSet &other)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= ~other.words_[w];
    }

    bool
    operator==(const DefSet &other) const
    {
        return words_ == other.words_;
    }

  private:
    std::vector<std::uint64_t> words_;
};

/** All definitions made by one statement. */
struct StmtDefs
{
    // At most two: Call defines the return register and unknown memory.
    std::uint32_t ids[2];
    int count = 0;
};

} // namespace

ReachingDefs::Result
ReachingDefs::analyze(const Cfg &cfg, const ir::Function &fn,
                      const TmpConstMap &consts, int numParams,
                      support::Deadline deadline)
{
    const obs::ScopedTimer kernelTimer("kernel.reachdef");
    Result result;
    const std::size_t n = fn.blocks.size();

    std::size_t tick = 0;

    // ---- Collect definitions -------------------------------------
    // Virtual entry definitions for every argument register first.
    for (int i = 0; i < kNumArgRegs; ++i) {
        Definition d;
        d.target = Definition::Target::Reg;
        d.reg = static_cast<ir::RegId>(i);
        d.param = i;
        result.defs.push_back(d);
    }

    // Map (block, stmt) -> def ids.
    std::vector<std::vector<StmtDefs>> stmtDefs(n);
    for (std::size_t b = 0; b < n; ++b) {
        stmtDefs[b].resize(fn.blocks[b].stmts.size());
        for (std::size_t s = 0; s < fn.blocks[b].stmts.size(); ++s) {
            const Stmt &stmt = fn.blocks[b].stmts[s];
            auto add = [&](Definition d) {
                d.block = b;
                d.stmt = s;
                auto &slot = stmtDefs[b][s];
                slot.ids[slot.count++] =
                    static_cast<std::uint32_t>(result.defs.size());
                result.defs.push_back(d);
            };

            switch (stmt.kind) {
              case StmtKind::Get:
              case StmtKind::Const:
              case StmtKind::Binop:
              case StmtKind::Load: {
                Definition d;
                d.target = Definition::Target::Tmp;
                d.tmp = stmt.dst;
                add(d);
                break;
              }
              case StmtKind::Put: {
                Definition d;
                d.target = Definition::Target::Reg;
                d.reg = stmt.reg;
                add(d);
                break;
              }
              case StmtKind::Store: {
                Definition d;
                if (auto addr = consts.valueOf(stmt.a)) {
                    d.target = Definition::Target::MemConst;
                    d.memAddr = *addr;
                } else {
                    d.target = Definition::Target::MemUnknown;
                }
                add(d);
                break;
              }
              case StmtKind::Call: {
                Definition ret;
                ret.target = Definition::Target::Reg;
                ret.reg = ir::kRetReg;
                add(ret);
                Definition mem;
                mem.target = Definition::Target::MemUnknown;
                add(mem);
                break;
              }
              default:
                break;
            }
        }
    }

    const std::size_t nDefs = result.defs.size();

    // ---- Index defs by target for kill computation and use lookup --
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> byReg;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> byTmp;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> byMem;
    std::vector<std::uint32_t> memUnknownDefs;
    std::vector<std::uint32_t> allMemDefs;
    for (std::uint32_t i = 0; i < nDefs; ++i) {
        const Definition &d = result.defs[i];
        switch (d.target) {
          case Definition::Target::Reg:
            byReg[d.reg].push_back(i);
            break;
          case Definition::Target::Tmp:
            byTmp[d.tmp].push_back(i);
            break;
          case Definition::Target::MemConst:
            byMem[d.memAddr].push_back(i);
            allMemDefs.push_back(i);
            break;
          case Definition::Target::MemUnknown:
            memUnknownDefs.push_back(i);
            allMemDefs.push_back(i);
            break;
        }
    }

    auto killSetOf = [&](std::uint32_t defId, DefSet &kill) {
        const Definition &d = result.defs[defId];
        switch (d.target) {
          case Definition::Target::Reg:
            for (std::uint32_t other : byReg[d.reg]) {
                if (other != defId)
                    kill.set(other);
            }
            break;
          case Definition::Target::Tmp:
            for (std::uint32_t other : byTmp[d.tmp]) {
                if (other != defId)
                    kill.set(other);
            }
            break;
          case Definition::Target::MemConst:
            for (std::uint32_t other : byMem[d.memAddr]) {
                if (other != defId)
                    kill.set(other);
            }
            break;
          case Definition::Target::MemUnknown:
            break; // may-aliases kill nothing
        }
    };

    // ---- Block-level GEN/KILL, then IN/OUT fixpoint ----------------
    std::vector<DefSet> gen(n, DefSet(nDefs));
    std::vector<DefSet> kill(n, DefSet(nDefs));
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t s = 0; s < fn.blocks[b].stmts.size(); ++s) {
            for (int k = 0; k < stmtDefs[b][s].count; ++k) {
                const std::uint32_t id = stmtDefs[b][s].ids[k];
                DefSet dkill(nDefs);
                killSetOf(id, dkill);
                gen[b].subtract(dkill);
                gen[b].set(id);
                kill[b].unionWith(dkill);
            }
        }
    }

    std::vector<DefSet> in(n, DefSet(nDefs));
    std::vector<DefSet> out(n, DefSet(nDefs));
    // The entry receives the virtual parameter definitions.
    DefSet entryIn(nDefs);
    for (int i = 0; i < kNumArgRegs; ++i)
        entryIn.set(static_cast<std::size_t>(i));
    if (n > 0)
        in[cfg.entry()] = entryIn;

    // Reverse-post-order worklist instead of round-robin whole-CFG
    // sweeps: each pop recomputes one block's IN/OUT from its
    // predecessors and re-enqueues the successors whose input just
    // changed. The equations are monotone over a finite lattice, so
    // any processing order converges to the same unique least
    // fixpoint as the sweeps — RPO seeding just reaches it in
    // near-minimal visits (one pass for acyclic regions). Blocks
    // unreachable from the entry are seeded too, in index order:
    // their OUT = GEN \ KILL feeds the IN of any reachable successor
    // exactly as the sweeps propagated it.
    if (!result.deadlineExpired && n > 0) {
        std::vector<std::size_t> order;
        order.reserve(n);
        std::vector<char> seen(n, 0);
        std::vector<std::pair<std::size_t, std::size_t>> stack;
        seen[cfg.entry()] = 1;
        stack.emplace_back(cfg.entry(), 0);
        while (!stack.empty()) {
            auto &[b, next] = stack.back();
            const auto &succs = cfg.succs(b);
            if (next < succs.size()) {
                const std::size_t succ = succs[next++];
                if (!seen[succ]) {
                    seen[succ] = 1;
                    stack.emplace_back(succ, 0);
                }
            } else {
                order.push_back(b);
                stack.pop_back();
            }
        }
        std::reverse(order.begin(), order.end());
        for (std::size_t b = 0; b < n; ++b) {
            if (!seen[b])
                order.push_back(b);
        }

        std::deque<std::size_t> work(order.begin(), order.end());
        std::vector<char> queued(n, 1);
        while (!work.empty()) {
            if (deadline.expiredCoarse(tick++)) {
                result.deadlineExpired = true;
                break;
            }
            const std::size_t b = work.front();
            work.pop_front();
            queued[b] = 0;

            DefSet newIn = b == cfg.entry() ? entryIn : DefSet(nDefs);
            for (std::size_t p : cfg.preds(b))
                newIn.unionWith(out[p]);
            DefSet newOut = newIn;
            newOut.subtract(kill[b]);
            newOut.unionWith(gen[b]);

            if (!(newIn == in[b]))
                in[b] = std::move(newIn);
            if (!(newOut == out[b])) {
                out[b] = std::move(newOut);
                for (std::size_t succ : cfg.succs(b)) {
                    if (!queued[succ]) {
                        queued[succ] = 1;
                        work.push_back(succ);
                    }
                }
            }
        }
    }

    // ---- Per-statement use-def chains (the DDG) --------------------
    result.useDefs.resize(n);
    result.stmtDeps.resize(n);
    for (std::size_t b = 0; b < n; ++b) {
        result.useDefs[b].resize(fn.blocks[b].stmts.size());
        result.stmtDeps[b].assign(fn.blocks[b].stmts.size(), 0);

        DefSet live = in[b];
        for (std::size_t s = 0; s < fn.blocks[b].stmts.size(); ++s) {
            const Stmt &stmt = fn.blocks[b].stmts[s];
            auto &uses = result.useDefs[b][s];

            auto useReg = [&](ir::RegId r, bool includeVirtual) {
                auto it = byReg.find(r);
                if (it == byReg.end())
                    return;
                for (std::uint32_t id : it->second) {
                    if (!live.test(id))
                        continue;
                    if (!includeVirtual && result.defs[id].isVirtual())
                        continue;
                    uses.push_back(id);
                }
            };
            auto useTmp = [&](const Operand &op) {
                if (!op.isTmp())
                    return;
                auto it = byTmp.find(op.tmp);
                if (it == byTmp.end())
                    return;
                for (std::uint32_t id : it->second) {
                    if (live.test(id))
                        uses.push_back(id);
                }
            };
            auto useMem = [&](const Operand &addrOp) {
                if (auto addr = consts.valueOf(addrOp)) {
                    auto it = byMem.find(*addr);
                    if (it != byMem.end()) {
                        for (std::uint32_t id : it->second) {
                            if (live.test(id))
                                uses.push_back(id);
                        }
                    }
                    for (std::uint32_t id : memUnknownDefs) {
                        if (live.test(id))
                            uses.push_back(id);
                    }
                } else {
                    // Unknown address: may read any memory cell.
                    for (std::uint32_t id : allMemDefs) {
                        if (live.test(id))
                            uses.push_back(id);
                    }
                }
            };

            switch (stmt.kind) {
              case StmtKind::Get:
                useReg(stmt.reg, true);
                break;
              case StmtKind::Put:
                useTmp(stmt.a);
                break;
              case StmtKind::Const:
                break;
              case StmtKind::Binop:
                useTmp(stmt.a);
                useTmp(stmt.b);
                break;
              case StmtKind::Load:
                useTmp(stmt.a);
                useMem(stmt.a);
                break;
              case StmtKind::Store:
                useTmp(stmt.a);
                useTmp(stmt.b);
                break;
              case StmtKind::Call:
                // Explicitly materialized arguments only.
                for (int r = 0; r < kNumArgRegs; ++r)
                    useReg(static_cast<ir::RegId>(r), false);
                if (stmt.indirect)
                    useTmp(stmt.a);
                break;
              case StmtKind::Branch:
                useTmp(stmt.a);
                break;
              case StmtKind::Jump:
                if (stmt.indirect)
                    useTmp(stmt.a);
                break;
              case StmtKind::Ret:
                useReg(ir::kRetReg, true);
                break;
            }

            // Apply this statement's definitions to the running set.
            for (int k = 0; k < stmtDefs[b][s].count; ++k) {
                const std::uint32_t id = stmtDefs[b][s].ids[k];
                DefSet dkill(nDefs);
                killSetOf(id, dkill);
                live.subtract(dkill);
                live.set(id);
            }
        }
    }

    // ---- Parameter dependence over the DDG -------------------------
    result.defDeps.assign(nDefs, 0);
    for (int i = 0; i < kNumArgRegs && i < numParams; ++i)
        result.defDeps[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(1u << i);

    // def id -> statements that use it.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
        defToUses(nDefs);
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t s = 0; s < result.useDefs[b].size(); ++s) {
            for (std::uint32_t id : result.useDefs[b][s])
                defToUses[id].emplace_back(b, s);
        }
    }

    // Worklist over statements until the def masks stabilize.
    std::vector<std::pair<std::size_t, std::size_t>> worklist;
    if (!result.deadlineExpired) {
        for (std::size_t b = 0; b < n; ++b) {
            for (std::size_t s = 0; s < result.useDefs[b].size(); ++s)
                worklist.emplace_back(b, s);
        }
    }
    while (!worklist.empty()) {
        if (deadline.expiredCoarse(tick++)) {
            result.deadlineExpired = true;
            break;
        }
        const auto [b, s] = worklist.back();
        worklist.pop_back();
        std::uint8_t mask = 0;
        for (std::uint32_t id : result.useDefs[b][s])
            mask |= result.defDeps[id];
        result.stmtDeps[b][s] = mask;
        for (int k = 0; k < stmtDefs[b][s].count; ++k) {
            const std::uint32_t id = stmtDefs[b][s].ids[k];
            const std::uint8_t merged =
                static_cast<std::uint8_t>(result.defDeps[id] | mask);
            if (merged != result.defDeps[id]) {
                result.defDeps[id] = merged;
                for (const auto &use : defToUses[id])
                    worklist.push_back(use);
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
