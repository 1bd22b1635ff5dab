#include "sta.hh"

#include <algorithm>

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

/*
 * Fixed limits. The paper runs STA with one setting, so these are
 * constants rather than options.
 */

/** Follow UCSE-resolved indirect call edges: never, because the
 * paper's STA is built on an IDA CFG/CG without indirect resolution. */
constexpr bool kResolveIndirectCalls = false;

/** Fixpoint cap: function visits, in whole-program rounds. */
constexpr std::size_t kMaxRounds = 24;

/** Per-function layout-order iterations per visit. */
constexpr std::size_t kPassesPerFunction = 2;

/** Per-function interprocedural summary state. */
struct FnState
{
    Mask paramIn[ir::kNumArgRegs] = {0, 0, 0, 0};
    Mask retOut = 0;
    Mask memOut = 0;
};

/**
 * Open-addressing hash map from a memory cell to a value, with its
 * live slots listed in insertion order. clear() is O(1) and keeps the
 * storage, so one map serves every function visit of a run.
 */
template <typename V>
class CellMap
{
  public:
    /** The value of `key`, or null. */
    V *
    find(CellKey key)
    {
        if (used_.empty())
            return nullptr;
        for (std::size_t i = slot(key);; i = (i + 1) & mask_) {
            if (stamps_[i] != stamp_)
                return nullptr;
            if (keys_[i] == key)
                return &values_[i];
        }
    }

    /** The value of `key`, inserted as V{} when absent. */
    V &
    operator[](CellKey key)
    {
        if ((used_.size() + 1) * 2 > keys_.size())
            grow();
        std::size_t i = slot(key);
        for (; stamps_[i] == stamp_; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                return values_[i];
        }
        stamps_[i] = stamp_;
        keys_[i] = key;
        values_[i] = V{};
        used_.push_back(static_cast<std::uint32_t>(i));
        return values_[i];
    }

    /** Call f(key, value) for every cell, in insertion order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::uint32_t i : used_)
            f(keys_[i], values_[i]);
    }

    void
    clear()
    {
        used_.clear();
        if (++stamp_ == 0) {
            std::fill(stamps_.begin(), stamps_.end(), 0);
            stamp_ = 1;
        }
    }

  private:
    std::size_t
    slot(CellKey key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask_;
    }

    void
    grow()
    {
        std::vector<CellKey> keys;
        std::vector<V> values;
        keys.reserve(used_.size());
        values.reserve(used_.size());
        forEach([&](CellKey k, const V &v) {
            keys.push_back(k);
            values.push_back(v);
        });
        const std::size_t capacity =
            std::max<std::size_t>(64, keys_.size() * 2);
        keys_.assign(capacity, 0);
        values_.assign(capacity, V{});
        stamps_.assign(capacity, 0);
        stamp_ = 1;
        mask_ = capacity - 1;
        used_.clear();
        for (std::size_t k = 0; k < keys.size(); ++k)
            (*this)[keys[k]] = values[k];
    }

    std::vector<CellKey> keys_;
    std::vector<V> values_;
    /** A slot is live when its stamp equals stamp_. */
    std::vector<std::uint32_t> stamps_;
    std::uint32_t stamp_ = 1;
    std::size_t mask_ = 0;
    std::vector<std::uint32_t> used_;
};

struct Engine
{
    const ProgramAnalysis &pa;
    const std::vector<TaintSource> &sources;
    RunIndex index;
    const FnId fnCount;

    std::vector<FnState> fnStates;
    CellMap<Mask> globalCells;
    Mask globalUnknown = 0;

    /** FIFO of functions to visit; queued[f] while f is in it. */
    std::vector<FnId> ring;
    std::size_t head = 0;
    std::size_t queuedCount = 0;
    std::vector<char> queued;

    /** Readers of global memory, recorded on each function's first
     * visit (every function starts queued, so one that has not been
     * visited yet needs no re-queueing): per constant cell, a linked
     * list of the functions that load it; and every function with a
     * Load, since each Load also reads the unknown-memory bucket. A
     * list node is (function, 1 + index of the next node), 0 ending
     * the list. */
    std::vector<char> visited;
    CellMap<std::uint32_t> cellReaderHead;
    std::vector<std::pair<FnId, std::uint32_t>> cellReaderLinks;
    std::vector<FnId> loadingFns;

    /** Per-visit state, reused across visits. */
    std::vector<Mask> tmps;
    CellMap<Mask> localMem;
    CellMap<Mask> pendingCells;

    std::size_t steps = 0;

    explicit Engine(const ProgramAnalysis &pa_,
                    const std::vector<TaintSource> &sources_)
        : pa(pa_), sources(sources_),
          index(pa_, sources_, kResolveIndirectCalls),
          fnCount(static_cast<FnId>(pa_.linked->fnCount())),
          fnStates(fnCount), ring(fnCount), queued(fnCount, 0),
          visited(fnCount, 0)
    {
    }

    void
    enqueue(FnId id)
    {
        if (queued[id])
            return;
        queued[id] = 1;
        ring[(head + queuedCount++) % fnCount] = id;
    }

    FnId
    dequeue()
    {
        const FnId id = ring[head];
        head = (head + 1) % fnCount;
        --queuedCount;
        queued[id] = 0;
        return id;
    }

    /** Functions that read f's retOut/memOut: the callers of its
     * same-image call sites. */
    void
    enqueueSummaryReaders(FnId f)
    {
        const auto &sites = pa.callGraph.sites();
        for (std::size_t idx : pa.callGraph.sitesOfCallee(f)) {
            const auto &site = sites[idx];
            if ((site.indirect && !kResolveIndirectCalls) ||
                !site.target.library.empty()) {
                continue;
            }
            enqueue(site.caller);
        }
    }

    void
    enqueueCellReaders(CellKey key)
    {
        const std::uint32_t *first = cellReaderHead.find(key);
        for (std::uint32_t node = first != nullptr ? *first : 0; node != 0;
             node = cellReaderLinks[node - 1].second) {
            enqueue(cellReaderLinks[node - 1].first);
        }
    }

    void
    recordCellReader(CellKey key, FnId id)
    {
        std::uint32_t &first = cellReaderHead[key];
        if (first != 0 && cellReaderLinks[first - 1].first == id)
            return; // this visit already recorded it
        cellReaderLinks.emplace_back(id, first);
        first = static_cast<std::uint32_t>(cellReaderLinks.size());
    }

    /**
     * One dataflow visit of a function: kPassesPerFunction passes in
     * layout order, recording the sink alerts it sees. Then its
     * summary and its stores are committed, and every function that
     * reads what grew is queued.
     */
    void
    analyzeFunction(FnId id)
    {
        const auto &fa = pa.fn(id);
        const ir::Function &fn = *fa.fn;
        FnState &state = fnStates[id];
        const std::size_t myImage = index.imageOf(id);
        const bool firstVisit = !visited[id];
        visited[id] = 1;
        bool loads = false;

        bool summaryGrew = false;

        tmps.assign(fn.numTmps, 0);
        Mask regs[ir::kNumRegs] = {};
        localMem.clear();
        Mask localUnknown = 0;

        // Pending monotone global updates, committed afterwards.
        pendingCells.clear();
        Mask pendingUnknown = 0;

        auto maskOf = [&](const Operand &op) -> Mask {
            if (op.isImm())
                return 0;
            return op.tmp < tmps.size() ? tmps[op.tmp] : 0;
        };

        for (std::size_t pass = 0; pass < kPassesPerFunction; ++pass) {
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
                        loads = true;
                        Mask m = maskOf(stmt.a);
                        if (auto addr = fa.consts.valueOf(stmt.a)) {
                            const CellKey key =
                                cellKey(myImage, *addr);
                            if (firstVisit && pass == 0)
                                recordCellReader(key, id);
                            if (const Mask *lm = localMem.find(key)) {
                                m |= *lm;
                            } else if (const Mask *gm =
                                           globalCells.find(key)) {
                                m |= *gm;
                            }
                            m |= localUnknown | globalUnknown;
                        } else {
                            m |= localUnknown | globalUnknown;
                            localMem.forEach(
                                [&m](CellKey, Mask cell) { m |= cell; });
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
                                   regs, localUnknown, pendingUnknown);
                        break;
                      case StmtKind::Ret:
                        if ((state.retOut | regs[ir::kRetReg]) !=
                            state.retOut) {
                            state.retOut |= regs[ir::kRetReg];
                            summaryGrew = true;
                        }
                        break;
                      default:
                        break;
                    }
                }
            }
        }
        if (firstVisit && loads)
            loadingFns.push_back(id);

        if ((state.memOut | localUnknown) != state.memOut) {
            state.memOut |= localUnknown;
            summaryGrew = true;
        }
        if (summaryGrew)
            enqueueSummaryReaders(id);

        pendingCells.forEach([&](CellKey key, Mask mask) {
            Mask &cell = globalCells[key];
            if ((cell | mask) != cell) {
                cell |= mask;
                enqueueCellReaders(key);
            }
        });
        if ((globalUnknown | pendingUnknown) != globalUnknown) {
            globalUnknown |= pendingUnknown;
            for (FnId reader : loadingFns)
                enqueue(reader);
        }
    }

    void
    handleCall(FnId caller, std::size_t blockIdx, std::size_t stmtIdx,
               Addr stmtAddr, const analysis::FunctionAnalysis &fa,
               Mask regs[], Mask &localUnknown, Mask &pendingUnknown)
    {
        const std::size_t myImage = index.imageOf(caller);
        Mask retMask = 0;
        const Mask argUnion =
            regs[0] | regs[1] | regs[2] | regs[3];

        for (std::size_t siteIdx :
             index.sitesAt(caller, blockIdx, stmtIdx)) {
            const auto &site = pa.callGraph.sites()[siteIdx];
            const RunIndex::SiteClass &cls = index.siteClass(siteIdx);

            // Sink check first: the call consumes its arguments.
            if (cls.sink != nullptr) {
                Mask hit = 0;
                for (int arg : cls.sink->taintedArgs) {
                    if (arg >= 0 && arg < ir::kNumArgRegs)
                        hit |= regs[arg];
                }
                index.recordAlert(caller, stmtAddr, *cls.sink, hit);
            }

            // CTS seeding.
            if (cls.cts != RunIndex::npos) {
                const TaintSource &src = sources[cls.cts];
                const Mask label =
                    index.labels().bySource[cls.cts].userBit;
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
                if (changed)
                    enqueue(callee);
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
                if (cls.memoryWriter) {
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

    Engine engine(pa, sources);
    const FnId fnCount = engine.fnCount;
    for (FnId id = 0; id < fnCount; ++id)
        engine.enqueue(id);

    const support::Deadline deadline =
        config_.deadlineMs > 0.0
            ? support::Deadline::afterMs(config_.deadlineMs)
            : support::Deadline::never();
    bool expired = false;

    // Every visit records the alerts it sees. A function is visited
    // again whenever something it reads grew, so its last visit sees
    // the final state, and since hit masks only grow, the merged
    // alerts of a completed fixpoint are those of that state.
    std::size_t processed = 0;
    const std::size_t cap =
        kMaxRounds * std::max<std::size_t>(1, fnCount);
    bool exhausted = false;
    while (engine.queuedCount != 0) {
        if (deadline.expiredCoarse(processed)) {
            expired = true;
            break;
        }
        if (processed++ > cap) {
            exhausted = true;
            break;
        }
        engine.analyzeFunction(engine.dequeue());
    }

    const std::size_t fixpointSteps = engine.steps;

    // A cut fixpoint left some functions' last visits behind the
    // state: one collection sweep over every function, from where the
    // state stands, records what they see now. Nothing is re-queued.
    if (expired || exhausted) {
        std::fill(engine.queued.begin(), engine.queued.end(), 1);
        for (FnId id = 0; id < fnCount; ++id)
            engine.analyzeFunction(id);
    }

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
