#include "reference_analysis.hh"

#include <algorithm>

#include "ir/types.hh"

namespace fits::reference {

namespace {

using analysis::AbsVal;
using analysis::LoopInfo;
using ir::kNumArgRegs;
using ir::kNumRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

void
addEdge(Cfg &cfg, std::size_t from, std::size_t to)
{
    auto &out = cfg.succs[from];
    if (std::find(out.begin(), out.end(), to) != out.end())
        return;
    out.push_back(to);
    cfg.preds[to].push_back(from);
}

} // namespace

Cfg
Cfg::build(const ir::Function &fn,
           const std::unordered_map<Addr, std::vector<Addr>>
               *resolvedTargets)
{
    Cfg cfg;
    const std::size_t n = fn.blocks.size();
    cfg.succs.resize(n);
    cfg.preds.resize(n);

    std::unordered_map<Addr, std::size_t> blockAt;
    for (std::size_t i = 0; i < n; ++i)
        blockAt[fn.blocks[i].addr] = i;

    for (std::size_t i = 0; i < n; ++i) {
        const ir::BasicBlock &block = fn.blocks[i];
        for (const auto &stmt : block.stmts) {
            if (stmt.kind != StmtKind::Branch)
                continue;
            auto it = blockAt.find(stmt.target);
            if (it != blockAt.end())
                addEdge(cfg, i, it->second);
        }
        const Stmt *term = block.terminator();
        if (term == nullptr) {
            if (i + 1 < n)
                addEdge(cfg, i, i + 1);
            continue;
        }
        if (term->kind == StmtKind::Jump) {
            if (!term->indirect) {
                auto it = blockAt.find(term->target);
                if (it != blockAt.end())
                    addEdge(cfg, i, it->second);
            } else if (resolvedTargets != nullptr) {
                const Addr stmtAddr =
                    block.stmtAddr(block.stmts.size() - 1);
                auto rt = resolvedTargets->find(stmtAddr);
                if (rt != resolvedTargets->end()) {
                    for (Addr target : rt->second) {
                        auto it = blockAt.find(target);
                        if (it != blockAt.end())
                            addEdge(cfg, i, it->second);
                    }
                }
            }
        }
    }
    return cfg;
}

std::vector<bool>
Cfg::reachable() const
{
    std::vector<bool> seen(numBlocks(), false);
    if (numBlocks() == 0)
        return seen;
    std::vector<std::size_t> stack = {0};
    seen[0] = true;
    while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        for (std::size_t s : succs[b]) {
            if (!seen[s]) {
                seen[s] = true;
                stack.push_back(s);
            }
        }
    }
    return seen;
}

TmpConstMap
TmpConstMap::compute(const ir::Function &fn, const bin::BinaryImage *image)
{
    TmpConstMap map;
    std::unordered_map<ir::TmpId, int> defCount;
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (stmt.definesTmp())
                ++defCount[stmt.dst];
        }
    }
    for (const auto &[tmp, count] : defCount) {
        if (count > 1)
            map.conflicted[tmp] = true;
    }
    auto eligible = [&map](ir::TmpId t) {
        auto it = map.conflicted.find(t);
        return it == map.conflicted.end() || !it->second;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &block : fn.blocks) {
            for (const auto &stmt : block.stmts) {
                if (!stmt.definesTmp() || !eligible(stmt.dst) ||
                    map.values.count(stmt.dst) != 0) {
                    continue;
                }
                switch (stmt.kind) {
                  case StmtKind::Const:
                    map.values[stmt.dst] = stmt.a.imm;
                    changed = true;
                    break;
                  case StmtKind::Binop: {
                    auto lhs = map.valueOf(stmt.a);
                    auto rhs = map.valueOf(stmt.b);
                    if (lhs && rhs) {
                        map.values[stmt.dst] =
                            ir::evalBinOp(stmt.op, *lhs, *rhs);
                        changed = true;
                    }
                    break;
                  }
                  case StmtKind::Load: {
                    auto addr = map.valueOf(stmt.a);
                    if (addr && image != nullptr &&
                        image->isRodata(*addr)) {
                        if (auto word = image->readWord(*addr)) {
                            map.values[stmt.dst] = *word;
                            changed = true;
                        }
                    }
                    break;
                  }
                  default:
                    break;
                }
            }
        }
    }
    return map;
}

std::optional<std::uint64_t>
TmpConstMap::valueOf(ir::TmpId t) const
{
    auto it = values.find(t);
    if (it == values.end())
        return std::nullopt;
    return it->second;
}

std::optional<std::uint64_t>
TmpConstMap::valueOf(const Operand &op) const
{
    if (op.isImm())
        return op.imm;
    return valueOf(op.tmp);
}

namespace {

struct PathState
{
    std::size_t block;
    std::vector<AbsVal> regs;
    std::vector<AbsVal> tmps;
};

AbsVal
evalOperand(const Operand &op, const PathState &state)
{
    if (op.isImm())
        return AbsVal::constant(op.imm);
    if (op.tmp < state.tmps.size())
        return state.tmps[op.tmp];
    return AbsVal::unknown();
}

void
recordTarget(std::unordered_map<Addr, std::vector<Addr>> &map,
             Addr site, Addr target)
{
    auto &targets = map[site];
    if (std::find(targets.begin(), targets.end(), target) ==
        targets.end()) {
        targets.push_back(target);
    }
}

} // namespace

analysis::UcseResult
explore(const bin::BinaryImage &image, const ir::Function &fn,
        const analysis::UcseConfig &config)
{
    analysis::UcseResult result;
    const std::size_t n = fn.blocks.size();
    result.reachedBlocks.assign(n, false);
    if (n == 0)
        return result;

    std::unordered_map<Addr, std::size_t> blockAt;
    for (std::size_t i = 0; i < n; ++i)
        blockAt[fn.blocks[i].addr] = i;

    PathState init;
    init.block = 0;
    init.regs.assign(kNumRegs, AbsVal::unknown());
    for (int i = 0; i < kNumArgRegs; ++i)
        init.regs[i] = AbsVal::argument(i);
    init.tmps.assign(fn.numTmps, AbsVal::unknown());

    std::vector<PathState> worklist;
    worklist.push_back(std::move(init));
    std::vector<std::size_t> visits(n, 0);

    std::size_t tick = 0;
    while (!worklist.empty()) {
        if (result.steps >= config.maxSteps) {
            result.budgetExhausted = true;
            break;
        }
        if (config.deadline.expiredCoarse(tick++)) {
            result.deadlineExpired = true;
            break;
        }
        PathState state = std::move(worklist.back());
        worklist.pop_back();

        if (visits[state.block] >= analysis::kUcseMaxVisitsPerBlock)
            continue;
        ++visits[state.block];
        result.reachedBlocks[state.block] = true;

        const ir::BasicBlock &block = fn.blocks[state.block];
        bool fellThrough = true;
        bool pathEnded = false;

        for (std::size_t si = 0;
             si < block.stmts.size() && !pathEnded; ++si) {
            ++result.steps;
            const Stmt &stmt = block.stmts[si];
            const Addr stmtAddr = block.stmtAddr(si);

            switch (stmt.kind) {
              case StmtKind::Get:
                state.tmps[stmt.dst] = stmt.reg < state.regs.size()
                                           ? state.regs[stmt.reg]
                                           : AbsVal::unknown();
                break;
              case StmtKind::Put:
                if (stmt.reg < state.regs.size())
                    state.regs[stmt.reg] = evalOperand(stmt.a, state);
                break;
              case StmtKind::Const:
                state.tmps[stmt.dst] = AbsVal::constant(stmt.a.imm);
                break;
              case StmtKind::Binop: {
                const AbsVal lhs = evalOperand(stmt.a, state);
                const AbsVal rhs = evalOperand(stmt.b, state);
                if (lhs.isConst() && rhs.isConst()) {
                    state.tmps[stmt.dst] = AbsVal::constant(
                        ir::evalBinOp(stmt.op, lhs.value, rhs.value));
                } else {
                    state.tmps[stmt.dst] = AbsVal::unknown();
                }
                break;
              }
              case StmtKind::Load: {
                const AbsVal addr = evalOperand(stmt.a, state);
                AbsVal loaded = AbsVal::unknown();
                if (addr.isConst() && image.isRodata(addr.value)) {
                    if (auto word = image.readWord(addr.value))
                        loaded = AbsVal::constant(*word);
                }
                state.tmps[stmt.dst] = loaded;
                break;
              }
              case StmtKind::Store:
                break;
              case StmtKind::Call: {
                if (stmt.indirect) {
                    const AbsVal target = evalOperand(stmt.a, state);
                    if (target.isConst())
                        recordTarget(result.resolvedCalls, stmtAddr,
                                     target.value);
                }
                for (int r = 0; r < kNumArgRegs; ++r)
                    state.regs[r] = AbsVal::unknown();
                break;
              }
              case StmtKind::Branch: {
                const AbsVal cond = evalOperand(stmt.a, state);
                auto taken = blockAt.find(stmt.target);
                const bool haveTaken = taken != blockAt.end();
                if (cond.isConst() && cond.value != 0) {
                    if (haveTaken) {
                        PathState next = state;
                        next.block = taken->second;
                        worklist.push_back(std::move(next));
                    }
                    fellThrough = false;
                    pathEnded = true;
                } else if (!cond.isConst() && haveTaken) {
                    PathState next = state;
                    next.block = taken->second;
                    worklist.push_back(std::move(next));
                }
                break;
              }
              case StmtKind::Jump: {
                Addr target = stmt.target;
                bool haveTarget = !stmt.indirect;
                if (stmt.indirect) {
                    const AbsVal v = evalOperand(stmt.a, state);
                    if (v.isConst()) {
                        recordTarget(result.resolvedJumps, stmtAddr,
                                     v.value);
                        target = v.value;
                        haveTarget = true;
                    }
                }
                if (haveTarget) {
                    auto it = blockAt.find(target);
                    if (it != blockAt.end()) {
                        PathState next = state;
                        next.block = it->second;
                        worklist.push_back(std::move(next));
                    }
                }
                fellThrough = false;
                pathEnded = true;
                break;
              }
              case StmtKind::Ret:
                fellThrough = false;
                pathEnded = true;
                break;
            }
        }

        if (fellThrough && state.block + 1 < n) {
            PathState next = std::move(state);
            next.block += 1;
            worklist.push_back(std::move(next));
        }
    }
    return result;
}

namespace {

bool
dominates(const LoopInfo &info, std::size_t a, std::size_t b)
{
    if (b >= info.idom.size() || info.idom[b] == LoopInfo::npos)
        return false;
    std::size_t cur = b;
    while (true) {
        if (cur == a)
            return true;
        if (info.idom[cur] == cur)
            return false;
        cur = info.idom[cur];
        if (cur == LoopInfo::npos)
            return false;
    }
}

void
postorder(const Cfg &cfg, std::size_t block, std::vector<bool> &seen,
          std::vector<std::size_t> &order)
{
    seen[block] = true;
    for (std::size_t s : cfg.succs[block]) {
        if (!seen[s])
            postorder(cfg, s, seen, order);
    }
    order.push_back(block);
}

} // namespace

LoopInfo
analyzeLoops(const Cfg &cfg, const ir::Function &fn)
{
    const std::size_t n = cfg.numBlocks();
    LoopInfo info;
    info.idom.assign(n, LoopInfo::npos);
    info.inLoop.assign(n, false);
    info.controlsLoop.assign(n, false);
    if (n == 0)
        return info;

    std::vector<bool> seen(n, false);
    std::vector<std::size_t> order;
    postorder(cfg, 0, seen, order);
    std::vector<std::size_t> rpoIndex(n, LoopInfo::npos);
    {
        std::size_t idx = 0;
        for (auto it = order.rbegin(); it != order.rend(); ++it)
            rpoIndex[*it] = idx++;
    }

    auto intersect = [&](std::size_t a, std::size_t b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = info.idom[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = info.idom[b];
        }
        return a;
    };

    info.idom[0] = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const std::size_t b = *it;
            if (b == 0)
                continue;
            std::size_t newIdom = LoopInfo::npos;
            for (std::size_t p : cfg.preds[b]) {
                if (!seen[p] || info.idom[p] == LoopInfo::npos)
                    continue;
                newIdom = newIdom == LoopInfo::npos
                              ? p
                              : intersect(p, newIdom);
            }
            if (newIdom != LoopInfo::npos && info.idom[b] != newIdom) {
                info.idom[b] = newIdom;
                changed = true;
            }
        }
    }

    for (std::size_t a = 0; a < n; ++a) {
        if (!seen[a])
            continue;
        for (std::size_t h : cfg.succs[a]) {
            if (dominates(info, h, a))
                info.backEdges.emplace_back(a, h);
        }
    }

    for (const auto &[latch, header] : info.backEdges) {
        info.inLoop[header] = true;
        std::vector<std::size_t> stack = {latch};
        std::vector<bool> visited(n, false);
        visited[header] = true;
        while (!stack.empty()) {
            const std::size_t b = stack.back();
            stack.pop_back();
            if (visited[b])
                continue;
            visited[b] = true;
            info.inLoop[b] = true;
            for (std::size_t p : cfg.preds[b])
                stack.push_back(p);
        }
    }

    auto containsBranch = [&](std::size_t b) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == StmtKind::Branch)
                return true;
        }
        return false;
    };
    for (const auto &[latch, header] : info.backEdges) {
        if (containsBranch(header))
            info.controlsLoop[header] = true;
        if (containsBranch(latch))
            info.controlsLoop[latch] = true;
    }
    return info;
}

analysis::ParamInfo
inferParams(const Cfg &cfg, const ir::Function &fn)
{
    const std::size_t n = fn.blocks.size();
    analysis::ParamInfo info;
    if (n == 0)
        return info;

    constexpr std::uint8_t kAll = (1u << kNumArgRegs) - 1;
    std::vector<std::uint8_t> writtenIn(n, kAll);
    writtenIn[0] = 0;

    std::vector<std::uint8_t> writeMask(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == StmtKind::Put && stmt.reg < kNumArgRegs)
                writeMask[b] |= static_cast<std::uint8_t>(1u << stmt.reg);
            if (stmt.kind == StmtKind::Call)
                writeMask[b] = kAll;
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < n; ++b) {
            const std::uint8_t out =
                static_cast<std::uint8_t>(writtenIn[b] | writeMask[b]);
            for (std::size_t s : cfg.succs[b]) {
                const std::uint8_t merged =
                    static_cast<std::uint8_t>(writtenIn[s] & out);
                if (merged != writtenIn[s]) {
                    writtenIn[s] = merged;
                    changed = true;
                }
            }
        }
    }

    const auto reachable = cfg.reachable();
    for (std::size_t b = 0; b < n; ++b) {
        if (!reachable[b])
            continue;
        std::uint8_t written = writtenIn[b];
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == StmtKind::Get && stmt.reg < kNumArgRegs) {
                const auto bit = static_cast<std::uint8_t>(1u << stmt.reg);
                if ((written & bit) == 0)
                    info.usedMask |= bit;
            } else if (stmt.kind == StmtKind::Put &&
                       stmt.reg < kNumArgRegs) {
                written |= static_cast<std::uint8_t>(1u << stmt.reg);
            } else if (stmt.kind == StmtKind::Call) {
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

CallGraph
CallGraph::build(const analysis::LinkedProgram &linked,
                 const std::unordered_map<FnId,
                                          const analysis::UcseTargets *>
                     *ucseByFn)
{
    CallGraph cg;
    for (FnId caller = 0; caller < linked.fnCount(); ++caller) {
        const analysis::FnRef &ref = linked.fn(caller);
        const analysis::UcseTargets *ucse = nullptr;
        if (ucseByFn != nullptr) {
            auto it = ucseByFn->find(caller);
            if (it != ucseByFn->end())
                ucse = it->second;
        }
        for (std::size_t bi = 0; bi < ref.fn->blocks.size(); ++bi) {
            const ir::BasicBlock &block = ref.fn->blocks[bi];
            for (std::size_t si = 0; si < block.stmts.size(); ++si) {
                const Stmt &stmt = block.stmts[si];
                if (stmt.kind != StmtKind::Call)
                    continue;
                const Addr stmtAddr = block.stmtAddr(si);
                auto unresolved = [&] {
                    analysis::CallSite site;
                    site.caller = caller;
                    site.blockIdx = bi;
                    site.stmtIdx = si;
                    site.stmtAddr = stmtAddr;
                    site.indirect = true;
                    cg.byCaller[caller].push_back(cg.sites.size());
                    cg.sites.push_back(std::move(site));
                };
                auto emit = [&](Addr targetAddr, bool indirect) {
                    analysis::CallSite site;
                    site.caller = caller;
                    site.blockIdx = bi;
                    site.stmtIdx = si;
                    site.stmtAddr = stmtAddr;
                    site.indirect = indirect;
                    site.target = linked.resolve(ref.image, targetAddr);
                    const std::size_t idx = cg.sites.size();
                    cg.byCaller[caller].push_back(idx);
                    if (site.resolvesToFunction())
                        cg.byCallee[site.target.fn].push_back(idx);
                    cg.sites.push_back(std::move(site));
                };
                if (!stmt.indirect) {
                    emit(stmt.target, false);
                } else if (ucse != nullptr) {
                    auto it = ucse->resolvedCalls.find(stmtAddr);
                    if (it != ucse->resolvedCalls.end()) {
                        for (Addr t : it->second)
                            emit(t, true);
                    } else {
                        unresolved();
                    }
                } else {
                    unresolved();
                }
            }
        }
    }
    return cg;
}

std::vector<std::size_t>
CallGraph::sitesOfCaller(FnId caller) const
{
    auto it = byCaller.find(caller);
    return it == byCaller.end() ? std::vector<std::size_t>{} : it->second;
}

std::vector<std::size_t>
CallGraph::sitesOfCallee(FnId callee) const
{
    auto it = byCallee.find(callee);
    return it == byCallee.end() ? std::vector<std::size_t>{} : it->second;
}

} // namespace fits::reference
