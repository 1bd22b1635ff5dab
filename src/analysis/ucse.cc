#include "ucse.hh"

#include <algorithm>

#include "analysis/scratch.hh"
#include "ir/types.hh"

namespace fits::analysis {

namespace {

using ir::kNumArgRegs;
using ir::kNumRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

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

    // A path state is kNumRegs registers followed by numTmps
    // temporaries. The running state lives in `state`; pending paths
    // wait on one flat stack of such frames, popped last-in first-out.
    auto &scratch = detail::scratch();
    const std::size_t numTmps = fn.numTmps;
    const std::size_t width = kNumRegs + numTmps;
    auto &state = scratch.state;
    auto &frames = scratch.frames;
    auto &frameBlocks = scratch.frameBlocks;
    auto &visits = scratch.visits;
    frames.clear();
    frameBlocks.clear();
    visits.assign(n, 0);

    // Initial state: arguments symbolic (under-constrained), everything
    // else unknown.
    state.assign(width, AbsVal::unknown());
    for (int i = 0; i < kNumArgRegs; ++i)
        state[i] = AbsVal::argument(i);
    AbsVal *regs = state.data();
    AbsVal *tmps = regs + kNumRegs;

    auto push = [&](std::size_t block) {
        frames.insert(frames.end(), state.begin(), state.end());
        frameBlocks.push_back(block);
    };
    auto evalOperand = [&](const Operand &op) {
        if (op.isImm())
            return AbsVal::constant(op.imm);
        if (op.tmp < numTmps)
            return tmps[op.tmp];
        return AbsVal::unknown();
    };

    push(0);
    std::size_t tick = 0;
    while (!frameBlocks.empty()) {
        if (result.steps >= config_.maxSteps) {
            result.budgetExhausted = true;
            break;
        }
        if (config_.deadline.expiredCoarse(tick++)) {
            result.deadlineExpired = true;
            break;
        }
        const std::size_t current = frameBlocks.back();
        frameBlocks.pop_back();
        if (visits[current] >= kUcseMaxVisitsPerBlock) {
            frames.resize(frames.size() - width);
            continue;
        }
        std::copy(frames.end() - static_cast<std::ptrdiff_t>(width),
                  frames.end(), state.begin());
        frames.resize(frames.size() - width);
        ++visits[current];
        result.reachedBlocks[current] = true;

        const ir::BasicBlock &block = fn.blocks[current];
        bool fellThrough = true;
        bool pathEnded = false;

        for (std::size_t si = 0;
             si < block.stmts.size() && !pathEnded; ++si) {
            ++result.steps;
            const Stmt &stmt = block.stmts[si];
            const Addr stmtAddr = block.stmtAddr(si);

            switch (stmt.kind) {
              case StmtKind::Get:
                tmps[stmt.dst] = stmt.reg < kNumRegs
                                     ? regs[stmt.reg]
                                     : AbsVal::unknown();
                break;
              case StmtKind::Put:
                if (stmt.reg < kNumRegs)
                    regs[stmt.reg] = evalOperand(stmt.a);
                break;
              case StmtKind::Const:
                tmps[stmt.dst] = AbsVal::constant(stmt.a.imm);
                break;
              case StmtKind::Binop: {
                const AbsVal lhs = evalOperand(stmt.a);
                const AbsVal rhs = evalOperand(stmt.b);
                if (lhs.isConst() && rhs.isConst()) {
                    tmps[stmt.dst] = AbsVal::constant(
                        ir::evalBinOp(stmt.op, lhs.value, rhs.value));
                } else {
                    tmps[stmt.dst] = AbsVal::unknown();
                }
                break;
              }
              case StmtKind::Load: {
                const AbsVal addr = evalOperand(stmt.a);
                AbsVal loaded = AbsVal::unknown();
                if (addr.isConst() && image_.isRodata(addr.value)) {
                    // Only read-only memory is stable at runtime; this
                    // is what makes jump tables and function-pointer
                    // tables resolve.
                    if (auto word = image_.readWord(addr.value))
                        loaded = AbsVal::constant(*word);
                }
                tmps[stmt.dst] = loaded;
                break;
              }
              case StmtKind::Store:
                // Path-local stores are not modeled; later loads from
                // that address fall back to image bytes or Unknown.
                break;
              case StmtKind::Call: {
                if (stmt.indirect) {
                    const AbsVal target = evalOperand(stmt.a);
                    if (target.isConst())
                        recordTarget(result.resolvedCalls, stmtAddr,
                                     target.value);
                }
                // Caller-saved registers are clobbered by the callee;
                // the return value is unconstrained.
                for (int r = 0; r < kNumArgRegs; ++r)
                    regs[r] = AbsVal::unknown();
                break;
              }
              case StmtKind::Branch: {
                // Conditional side exit: taken -> target block;
                // not taken -> continue with the next statement.
                const AbsVal cond = evalOperand(stmt.a);
                const std::size_t taken = fn.blockIndexAt(stmt.target);
                const bool haveTaken = taken != ir::Function::npos;

                if (cond.isConst() && cond.value != 0) {
                    if (haveTaken)
                        push(taken);
                    fellThrough = false;
                    pathEnded = true;
                } else if (!cond.isConst() && haveTaken) {
                    push(taken);
                }
                // Constant-false or symbolic: keep executing in place.
                break;
              }
              case StmtKind::Jump: {
                Addr target = stmt.target;
                bool haveTarget = !stmt.indirect;
                if (stmt.indirect) {
                    const AbsVal v = evalOperand(stmt.a);
                    if (v.isConst()) {
                        recordTarget(result.resolvedJumps, stmtAddr,
                                     v.value);
                        target = v.value;
                        haveTarget = true;
                    }
                }
                if (haveTarget) {
                    const std::size_t next = fn.blockIndexAt(target);
                    if (next != ir::Function::npos)
                        push(next);
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

        if (fellThrough && current + 1 < n)
            push(current + 1);
    }

    return result;
}

} // namespace fits::analysis
