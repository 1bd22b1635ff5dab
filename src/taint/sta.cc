#include "sta.hh"

#include <deque>
#include <unordered_map>

#include "obs/metrics.hh"
#include "support/deadline.hh"
#include "taint/run_index.hh"

namespace fits::taint {

namespace {

using analysis::FnId;
using analysis::ProgramAnalysis;
using ir::Addr;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

/** Per-function interprocedural summary state. */
struct FnState
{
    Mask paramIn[ir::kNumArgRegs] = {0, 0, 0, 0};
    Mask retOut = 0;
    Mask memOut = 0;
};

struct Engine
{
    const ProgramAnalysis &pa;
    const StaEngine::Config &config;
    const std::vector<TaintSource> &sources;
    RunIndex index;

    std::vector<FnState> fnStates;
    std::unordered_map<CellKey, Mask> globalCells;
    Mask globalUnknown = 0;

    std::size_t steps = 0;
    /** Alerts are recorded only in the collection sweep that follows
     * the fixpoint. */
    bool recording = false;

    explicit Engine(const ProgramAnalysis &pa_,
                    const StaEngine::Config &config_,
                    const std::vector<TaintSource> &sources_)
        : pa(pa_), config(config_), sources(sources_),
          index(pa_, sources_, config_.resolveIndirectCalls),
          fnStates(pa_.linked->fnCount())
    {
    }

    /**
     * One dataflow pass over a function. Returns true if the
     * function's externally visible summary (retOut/memOut), the
     * global memory state, or any callee's paramIn changed.
     */
    bool
    analyzeFunction(FnId id, std::deque<FnId> &worklist,
                    std::vector<bool> &queued)
    {
        const auto &fa = pa.fn(id);
        const ir::Function &fn = *fa.fn;
        FnState &state = fnStates[id];
        const std::size_t myImage = index.imageOf(id);

        bool externallyChanged = false;

        std::vector<Mask> tmps(fn.numTmps, 0);
        Mask regs[ir::kNumRegs] = {};
        std::unordered_map<CellKey, Mask> localMem;
        Mask localUnknown = 0;

        // Pending monotone global updates, committed afterwards.
        std::unordered_map<CellKey, Mask> pendingCells;
        Mask pendingUnknown = 0;

        auto maskOf = [&](const Operand &op) -> Mask {
            if (op.isImm())
                return 0;
            return op.tmp < tmps.size() ? tmps[op.tmp] : 0;
        };

        for (std::size_t pass = 0; pass < config.passesPerFunction;
             ++pass) {
            for (int i = 0; i < ir::kNumArgRegs; ++i)
                regs[i] |= state.paramIn[i];

            for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
                const auto &block = fn.blocks[b];
                for (std::size_t s = 0; s < block.stmts.size(); ++s) {
                    ++steps;
                    const Stmt &stmt = block.stmts[s];
                    switch (stmt.kind) {
                      case StmtKind::Get:
                        tmps[stmt.dst] = regs[stmt.reg];
                        break;
                      case StmtKind::Put:
                        regs[stmt.reg] = maskOf(stmt.a);
                        break;
                      case StmtKind::Const:
                        tmps[stmt.dst] = 0;
                        break;
                      case StmtKind::Binop:
                        tmps[stmt.dst] =
                            maskOf(stmt.a) | maskOf(stmt.b);
                        break;
                      case StmtKind::Load: {
                        Mask m = maskOf(stmt.a);
                        if (auto addr = fa.consts.valueOf(stmt.a)) {
                            const CellKey key =
                                cellKey(myImage, *addr);
                            auto lm = localMem.find(key);
                            if (lm != localMem.end()) {
                                m |= lm->second;
                            } else {
                                auto gm = globalCells.find(key);
                                if (gm != globalCells.end())
                                    m |= gm->second;
                            }
                            m |= localUnknown | globalUnknown;
                        } else {
                            m |= localUnknown | globalUnknown;
                            for (const auto &cell : localMem)
                                m |= cell.second;
                        }
                        tmps[stmt.dst] = m;
                        break;
                      }
                      case StmtKind::Store: {
                        const Mask value = maskOf(stmt.b);
                        const bool constValue =
                            fa.consts.valueOf(stmt.b).has_value() ||
                            stmt.b.isImm();
                        if (auto addr = fa.consts.valueOf(stmt.a)) {
                            const CellKey key =
                                cellKey(myImage, *addr);
                            // Data sanitization per §3.4: writing a
                            // constant over memory clears its taint
                            // (locally; the global view stays
                            // monotone).
                            localMem[key] = constValue ? 0 : value;
                            if (value != 0)
                                pendingCells[key] |= value;
                        } else {
                            localUnknown |= value;
                            pendingUnknown |= value;
                        }
                        break;
                      }
                      case StmtKind::Call:
                        handleCall(id, b, s, block.stmtAddr(s), fa,
                                   regs, localMem, localUnknown,
                                   pendingCells, pendingUnknown,
                                   worklist, queued);
                        break;
                      case StmtKind::Ret:
                        if (regs[ir::kRetReg] != 0 &&
                            (state.retOut | regs[ir::kRetReg]) !=
                                state.retOut) {
                            state.retOut |= regs[ir::kRetReg];
                            externallyChanged = true;
                        }
                        break;
                      default:
                        break;
                    }
                }
            }
        }

        if ((state.memOut | localUnknown) != state.memOut) {
            state.memOut |= localUnknown;
            externallyChanged = true;
        }

        for (const auto &[key, mask] : pendingCells) {
            Mask &cell = globalCells[key];
            if ((cell | mask) != cell) {
                cell |= mask;
                externallyChanged = true;
            }
        }
        if ((globalUnknown | pendingUnknown) != globalUnknown) {
            globalUnknown |= pendingUnknown;
            externallyChanged = true;
        }

        return externallyChanged;
    }

    void
    handleCall(FnId caller, std::size_t blockIdx, std::size_t stmtIdx,
               Addr stmtAddr, const analysis::FunctionAnalysis &fa,
               Mask regs[],
               std::unordered_map<CellKey, Mask> &localMem,
               Mask &localUnknown,
               std::unordered_map<CellKey, Mask> &pendingCells,
               Mask &pendingUnknown, std::deque<FnId> &worklist,
               std::vector<bool> &queued)
    {
        const std::size_t myImage = index.imageOf(caller);
        const auto *callSites = index.sitesAt(caller, blockIdx, stmtIdx);

        Mask retMask = 0;
        const Mask argUnion =
            regs[0] | regs[1] | regs[2] | regs[3];

        if (callSites != nullptr) {
            for (std::size_t siteIdx : *callSites) {
                const auto &site = pa.callGraph.sites()[siteIdx];
                const std::string &name = site.target.name;

                // Sink check first: the call consumes its arguments.
                // Alerts are collected only in the final sweep.
                const SinkSpec *sink =
                    recording ? sinkByName(name) : nullptr;
                if (sink != nullptr) {
                    Mask hit = 0;
                    for (int arg : sink->taintedArgs) {
                        if (arg >= 0 && arg < ir::kNumArgRegs)
                            hit |= regs[arg];
                    }
                    index.recordAlert(caller, stmtAddr, *sink, hit);
                }

                // CTS seeding.
                const std::size_t cts = index.ctsSource(name);
                if (cts != RunIndex::npos) {
                    const TaintSource &src = sources[cts];
                    const Mask label =
                        index.labels().bySource[cts].userBit;
                    if (src.origin == TaintSource::Origin::ReturnValue) {
                        retMask |= label;
                    } else {
                        const int argIdx = src.pointerArg;
                        bool resolved = false;
                        if (argIdx >= 0 && argIdx < ir::kNumArgRegs) {
                            const auto tracker = fa.backtracker();
                            for (std::uint64_t addr :
                                 tracker.resolveArg(blockIdx, stmtIdx,
                                                    argIdx)) {
                                for (Addr off = 0;
                                     off < kPointerSeedRange; ++off) {
                                    const CellKey cell =
                                        cellKey(myImage, addr + off);
                                    localMem[cell] = label;
                                    pendingCells[cell] |= label;
                                }
                                resolved = true;
                            }
                        }
                        if (!resolved) {
                            localUnknown |= label;
                            pendingUnknown |= label;
                        }
                    }
                }

                if (site.resolvesToFunction() &&
                    site.target.library.empty()) {
                    // Custom (same-image) callee: propagate parameter
                    // taint and pick up its summary.
                    const FnId callee = site.target.fn;
                    FnState &cs = fnStates[callee];
                    const int calleeParams =
                        pa.fn(callee).params.count;
                    bool changed = false;
                    for (int i = 0; i < calleeParams; ++i) {
                        if ((cs.paramIn[i] | regs[i]) !=
                            cs.paramIn[i]) {
                            cs.paramIn[i] |= regs[i];
                            changed = true;
                        }
                    }
                    if (changed && !queued[callee]) {
                        queued[callee] = true;
                        worklist.push_back(callee);
                    }
                    retMask |= cs.retOut;
                    localUnknown |= cs.memOut;

                    // ITS seeding: the verified taint origin is the
                    // return register of the ITS.
                    const std::size_t its = index.itsSource(callee);
                    if (its != RunIndex::npos)
                        retMask |= index.itsLabelAt(siteIdx, its);
                } else if (site.resolvesToFunction()) {
                    // Library function with an implementation: treat
                    // as a model (anchor semantics): taint flows from
                    // arguments to the return value, and for memory
                    // writers into the destination buffer.
                    retMask |= argUnion;
                    if (isMemoryWriter(name)) {
                        const Mask srcMask =
                            regs[1] | regs[2] | regs[3];
                        const auto tracker = fa.backtracker();
                        bool resolved = false;
                        for (std::uint64_t addr :
                             tracker.resolveArg(blockIdx, stmtIdx,
                                                0)) {
                            const CellKey cell =
                                cellKey(myImage, addr);
                            localMem[cell] = srcMask;
                            if (srcMask != 0)
                                pendingCells[cell] |= srcMask;
                            resolved = true;
                        }
                        if (!resolved && srcMask != 0) {
                            localUnknown |= srcMask;
                            pendingUnknown |= srcMask;
                        }
                    }
                } else {
                    // External import without implementation.
                    retMask |= argUnion;
                }
            }
        }

        // The callee clobbers caller-saved registers.
        regs[0] = retMask;
        regs[1] = regs[2] = regs[3] = 0;
    }
};

} // namespace

TaintReport
StaEngine::run(const ProgramAnalysis &pa,
               const std::vector<TaintSource> &sources) const
{
    obs::ScopedTimer runSpan("taint/sta");

    Engine engine(pa, config_, sources);

    std::deque<FnId> worklist;
    std::vector<bool> queued(pa.linked->fnCount(), true);
    for (FnId id = 0; id < pa.linked->fnCount(); ++id)
        worklist.push_back(id);

    const support::Deadline deadline =
        config_.deadlineMs > 0.0
            ? support::Deadline::afterMs(config_.deadlineMs)
            : support::Deadline::never();
    bool expired = false;

    std::size_t processed = 0;
    const std::size_t cap =
        config_.maxRounds * std::max<std::size_t>(
                                1, pa.linked->fnCount());
    bool exhausted = false;
    while (!worklist.empty()) {
        if (deadline.expiredCoarse(processed)) {
            expired = true;
            break;
        }
        if (processed++ > cap) {
            exhausted = true;
            break;
        }
        const FnId id = worklist.front();
        worklist.pop_front();
        queued[id] = false;
        if (engine.analyzeFunction(id, worklist, queued)) {
            // The function's summary or the global memory state
            // changed: anything may observe it (loads from global
            // cells have no call-graph edge), so requeue everything
            // still unqueued. The round cap bounds the fixpoint.
            for (FnId other = 0; other < pa.linked->fnCount();
                 ++other) {
                if (!queued[other]) {
                    queued[other] = true;
                    worklist.push_back(other);
                }
            }
        }
    }

    const std::size_t fixpointSteps = engine.steps;

    // Collection sweep: state is at (or near) fixpoint; record alerts.
    engine.recording = true;
    std::deque<FnId> dummy;
    std::vector<bool> dummyQueued(pa.linked->fnCount(), true);
    for (FnId id = 0; id < pa.linked->fnCount(); ++id)
        engine.analyzeFunction(id, dummy, dummyQueued);

    TaintReport report = engine.index.takeReport();
    report.steps = engine.steps;
    report.budgetExhausted = exhausted;
    report.deadlineExpired = expired;
    report.analysisMs = runSpan.stopMs();

    if (obs::enabled()) {
        obs::addCounter("taint.sta.runs");
        obs::addCounter("taint.sta.fixpoint_steps", fixpointSteps);
        obs::addCounter("taint.sta.sweep_steps",
                        engine.steps - fixpointSteps);
        obs::addCounter("taint.sta.functions_processed", processed);
        obs::addCounter("taint.sta.alerts", report.alerts.size());
        if (exhausted)
            obs::addCounter("taint.sta.budget_exhausted");
        if (expired)
            obs::addCounter("taint.sta.deadline_expired");
    }
    return report;
}

} // namespace fits::taint
