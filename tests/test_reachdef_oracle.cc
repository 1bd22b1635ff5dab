/** @file Reference oracle for reaching definitions: the plain
 * round-robin IN/OUT sweep that the RPO worklist in
 * analysis/reachdef.cc replaced, kept here only as a test oracle. The
 * production kernel must give identical definitions, DDG edges and
 * parameter masks on every function the standard corpus analyzes. */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/linked.hh"
#include "analysis/program_analysis.hh"
#include "eval/corpus_runner.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

using analysis::Cfg;
using analysis::Definition;
using analysis::ReachingDefs;
using analysis::TmpConstMap;
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

    void set(std::size_t i) { words_[i / 64] |= 1ULL << (i % 64); }

    bool
    test(std::size_t i) const
    {
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    void
    unionWith(const DefSet &other)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] |= other.words_[w];
    }

    void
    subtract(const DefSet &other)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= ~other.words_[w];
    }

    bool operator==(const DefSet &other) const = default;

  private:
    std::vector<std::uint64_t> words_;
};

/** All definitions made by one statement (Call makes two). */
struct StmtDefs
{
    std::uint32_t ids[2];
    int count = 0;
};

/** Reaching definitions by repeated in-order sweeps over all blocks
 * until no IN/OUT set changes, then a statement worklist for the
 * parameter masks. No deadline. */
ReachingDefs::Result
roundRobinReachingDefs(const Cfg &cfg, const ir::Function &fn,
                       const TmpConstMap &consts, int numParams)
{
    ReachingDefs::Result result;
    const std::size_t n = fn.blocks.size();

    // Virtual entry definitions for every argument register first.
    for (int i = 0; i < kNumArgRegs; ++i) {
        Definition d;
        d.target = Definition::Target::Reg;
        d.reg = static_cast<ir::RegId>(i);
        d.param = i;
        result.defs.push_back(d);
    }

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
            Definition d;
            switch (stmt.kind) {
              case StmtKind::Get:
              case StmtKind::Const:
              case StmtKind::Binop:
              case StmtKind::Load:
                d.target = Definition::Target::Tmp;
                d.tmp = stmt.dst;
                add(d);
                break;
              case StmtKind::Put:
                d.target = Definition::Target::Reg;
                d.reg = stmt.reg;
                add(d);
                break;
              case StmtKind::Store:
                if (auto addr = consts.valueOf(stmt.a)) {
                    d.target = Definition::Target::MemConst;
                    d.memAddr = *addr;
                } else {
                    d.target = Definition::Target::MemUnknown;
                }
                add(d);
                break;
              case StmtKind::Call: {
                d.target = Definition::Target::Reg;
                d.reg = ir::kRetReg;
                add(d);
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
        const std::vector<std::uint32_t> *same = nullptr;
        switch (d.target) {
          case Definition::Target::Reg:
            same = &byReg[d.reg];
            break;
          case Definition::Target::Tmp:
            same = &byTmp[d.tmp];
            break;
          case Definition::Target::MemConst:
            same = &byMem[d.memAddr];
            break;
          case Definition::Target::MemUnknown:
            return; // may-aliases kill nothing
        }
        for (std::uint32_t other : *same) {
            if (other != defId)
                kill.set(other);
        }
    };

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
    DefSet entryIn(nDefs);
    for (int i = 0; i < kNumArgRegs; ++i)
        entryIn.set(static_cast<std::size_t>(i));
    if (n > 0)
        in[cfg.entry()] = entryIn;

    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t b = 0; b < n; ++b) {
            DefSet newIn = b == cfg.entry() ? entryIn : DefSet(nDefs);
            for (std::size_t p : cfg.preds(b))
                newIn.unionWith(out[p]);
            DefSet newOut = newIn;
            newOut.subtract(kill[b]);
            newOut.unionWith(gen[b]);
            if (!(newIn == in[b]) || !(newOut == out[b])) {
                in[b] = std::move(newIn);
                out[b] = std::move(newOut);
                changed = true;
            }
        }
    }

    result.useDefs.resize(n);
    result.stmtDeps.resize(n);
    for (std::size_t b = 0; b < n; ++b) {
        result.useDefs[b].resize(fn.blocks[b].stmts.size());
        result.stmtDeps[b].assign(fn.blocks[b].stmts.size(), 0);

        DefSet live = in[b];
        for (std::size_t s = 0; s < fn.blocks[b].stmts.size(); ++s) {
            const Stmt &stmt = fn.blocks[b].stmts[s];
            auto &uses = result.useDefs[b][s];

            auto useIds = [&](const std::vector<std::uint32_t> &ids) {
                for (std::uint32_t id : ids) {
                    if (live.test(id))
                        uses.push_back(id);
                }
            };
            auto useReg = [&](ir::RegId r, bool includeVirtual) {
                auto it = byReg.find(r);
                if (it == byReg.end())
                    return;
                for (std::uint32_t id : it->second) {
                    if (live.test(id) &&
                        (includeVirtual || !result.defs[id].isVirtual()))
                        uses.push_back(id);
                }
            };
            auto useTmp = [&](const Operand &op) {
                if (!op.isTmp())
                    return;
                auto it = byTmp.find(op.tmp);
                if (it != byTmp.end())
                    useIds(it->second);
            };
            auto useMem = [&](const Operand &addrOp) {
                if (auto addr = consts.valueOf(addrOp)) {
                    auto it = byMem.find(*addr);
                    if (it != byMem.end())
                        useIds(it->second);
                    useIds(memUnknownDefs);
                } else {
                    useIds(allMemDefs);
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
              case StmtKind::Store:
                useTmp(stmt.a);
                useTmp(stmt.b);
                break;
              case StmtKind::Load:
                useTmp(stmt.a);
                useMem(stmt.a);
                break;
              case StmtKind::Call:
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

            for (int k = 0; k < stmtDefs[b][s].count; ++k) {
                const std::uint32_t id = stmtDefs[b][s].ids[k];
                DefSet dkill(nDefs);
                killSetOf(id, dkill);
                live.subtract(dkill);
                live.set(id);
            }
        }
    }

    result.defDeps.assign(nDefs, 0);
    for (int i = 0; i < kNumArgRegs && i < numParams; ++i)
        result.defDeps[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(1u << i);

    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
        defToUses(nDefs);
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t s = 0; s < result.useDefs[b].size(); ++s) {
            for (std::uint32_t id : result.useDefs[b][s])
                defToUses[id].emplace_back(b, s);
        }
    }

    std::vector<std::pair<std::size_t, std::size_t>> worklist;
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t s = 0; s < result.useDefs[b].size(); ++s)
            worklist.emplace_back(b, s);
    }
    while (!worklist.empty()) {
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

    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t s = 0; s < fn.blocks[b].stmts.size(); ++s) {
            if (fn.blocks[b].stmts[s].kind == StmtKind::Branch)
                result.branchDepMask |= result.stmtDeps[b][s];
        }
    }
    return result;
}

bool
sameDefinition(const Definition &a, const Definition &b)
{
    return a.target == b.target && a.reg == b.reg && a.tmp == b.tmp &&
           a.memAddr == b.memAddr && a.block == b.block &&
           a.stmt == b.stmt && a.param == b.param;
}

/** Empty when `actual` equals the oracle's result, else what differs. */
std::string
compareFlow(const ReachingDefs::Result &actual,
            const ReachingDefs::Result &oracle)
{
    if (actual.deadlineExpired)
        return "deadline expired";
    if (actual.defs.size() != oracle.defs.size())
        return "definition count";
    for (std::size_t i = 0; i < actual.defs.size(); ++i) {
        if (!sameDefinition(actual.defs[i], oracle.defs[i]))
            return "definition " + std::to_string(i);
    }
    if (actual.useDefs != oracle.useDefs)
        return "use-def edges";
    if (actual.defDeps != oracle.defDeps)
        return "definition parameter masks";
    if (actual.stmtDeps != oracle.stmtDeps)
        return "statement parameter masks";
    if (actual.branchDepMask != oracle.branchDepMask)
        return "branch parameter mask";
    return {};
}

TEST(ReachDefOracle, RpoWorklistMatchesRoundRobinOnCorpus)
{
    const auto specs = synth::standardDataset();
    // Per sample: number of functions checked, then the first mismatch.
    struct Checked
    {
        std::size_t functions = 0;
        std::string mismatch;
    };
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
            for (const auto &fa : pa.fns) {
                ++out.functions;
                const std::string diff = compareFlow(
                    fa.flow, roundRobinReachingDefs(fa.cfg, *fa.fn,
                                                    fa.consts,
                                                    fa.params.count));
                if (!diff.empty() && out.mismatch.empty()) {
                    out.mismatch = specs[i].name + " fn " +
                                   std::to_string(fa.fn->entry) +
                                   ": " + diff;
                }
            }
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
        EXPECT_TRUE(c.mismatch.empty()) << c.mismatch;
    }
    // 55 of the 59 samples select a binary; each has many functions.
    EXPECT_GT(functions, 1000u);
}

} // namespace
} // namespace fits
