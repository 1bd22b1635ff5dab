#include "ucse.hh"

#include <algorithm>

#include "ir/types.hh"

namespace fits::analysis {

namespace {

using ir::kNumArgRegs;
using ir::kNumRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

/** One in-flight path state. */
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

UcseExplorer::UcseExplorer(const bin::BinaryImage &image,
                           UcseConfig config)
    : image_(image), config_(config)
{
}

UcseResult
UcseExplorer::explore(const ir::Function &fn) const
{
    UcseResult result;
    const std::size_t n = fn.blocks.size();
    result.reachedBlocks.assign(n, false);
    if (n == 0)
        return result;

    std::unordered_map<Addr, std::size_t> blockAt;
    for (std::size_t i = 0; i < n; ++i)
        blockAt[fn.blocks[i].addr] = i;

    // Initial state: arguments symbolic (under-constrained), everything
    // else unknown.
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
        if (result.steps >= config_.maxSteps) {
            result.budgetExhausted = true;
            break;
        }
        if (config_.deadline.expiredCoarse(tick++)) {
            result.deadlineExpired = true;
            break;
        }
        PathState state = std::move(worklist.back());
        worklist.pop_back();

        if (visits[state.block] >= kUcseMaxVisitsPerBlock)
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
                if (addr.isConst() && image_.isRodata(addr.value)) {
                    // Only read-only memory is stable at runtime; this
                    // is what makes jump tables and function-pointer
                    // tables resolve.
                    if (auto word = image_.readWord(addr.value))
                        loaded = AbsVal::constant(*word);
                }
                state.tmps[stmt.dst] = loaded;
                break;
              }
              case StmtKind::Store:
                // Path-local stores are not modeled; later loads from
                // that address fall back to image bytes or Unknown.
                break;
              case StmtKind::Call: {
                if (stmt.indirect) {
                    const AbsVal target = evalOperand(stmt.a, state);
                    if (target.isConst())
                        recordTarget(result.resolvedCalls, stmtAddr,
                                     target.value);
                }
                // Caller-saved registers are clobbered by the callee;
                // the return value is unconstrained.
                for (int r = 0; r < kNumArgRegs; ++r)
                    state.regs[r] = AbsVal::unknown();
                break;
              }
              case StmtKind::Branch: {
                // Conditional side exit: taken -> target block;
                // not taken -> continue with the next statement.
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
                // Constant-false or symbolic: keep executing in place.
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

} // namespace fits::analysis
