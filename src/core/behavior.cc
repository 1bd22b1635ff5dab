#include "behavior.hh"

#include <set>

#include "core/anchors.hh"

namespace fits::core {

using analysis::CallGraph;
using analysis::FnId;
using analysis::FunctionAnalysis;
using analysis::LinkedProgram;
using analysis::ProgramAnalysis;

BehaviorAnalyzer::BehaviorAnalyzer()
    : config_()
{
}

BehaviorAnalyzer::BehaviorAnalyzer(Config config)
    : config_(config)
{
}

BehaviorRepr
BehaviorAnalyzer::analyze(const ProgramAnalysis &pa) const
{
    const LinkedProgram &linked = *pa.linked;
    const CallGraph &cg = pa.callGraph;
    BehaviorRepr repr;
    const std::size_t n = linked.fnCount();

    const auto anchorIds = findAnchorFunctions(linked);
    std::vector<bool> isAnchorFn(n, false);
    for (FnId id : anchorIds)
        isAnchorFn[id] = true;

    repr.records.resize(n);
    for (FnId id = 0; id < n; ++id) {
        const auto &ref = linked.fn(id);
        const FunctionAnalysis &fa = pa.fn(id);
        FunctionRecord &rec = repr.records[id];
        rec.id = id;
        rec.entry = ref.fn->entry;
        rec.name = ref.fn->name;
        rec.isCustom = linked.isMainFn(id);
        rec.isAnchor = isAnchorFn[id];

        Bfv &bfv = rec.bfv;

        // --- Structural features (Table 1, SF 1-6) ------------------
        bfv.numBlocks = static_cast<double>(ref.fn->blocks.size());
        bfv.hasLoop = fa.loops.hasLoop();
        bfv.numCallers = static_cast<double>(cg.callerSiteCount(id));
        bfv.numParams = static_cast<double>(fa.params.count);

        double anchorCalls = 0, libCalls = 0;
        for (std::size_t siteIdx : cg.sitesOfCaller(id)) {
            const auto &site = cg.sites()[siteIdx];
            if (!site.target.name.empty() &&
                isAnchorName(site.target.name)) {
                ++anchorCalls;
            }
            // Library calls: through the PLT, to unresolved imports,
            // or (inside a library) to sibling library functions.
            if (site.isLibraryCall() ||
                (site.resolvesToFunction() &&
                 !linked.isMainFn(site.target.fn))) {
                ++libCalls;
            }
        }
        bfv.numAnchorCalls = anchorCalls;
        bfv.numLibCalls = libCalls;

        // --- Intraprocedural flow features (FF 7-9) -----------------
        bfv.paramsControlLoop = fa.loopDepMask != 0;
        bfv.paramsControlBranch = fa.flow.branchDepMask != 0;

        bool paramsToAnchor = false;
        for (std::size_t siteIdx : cg.sitesOfCaller(id)) {
            const auto &site = cg.sites()[siteIdx];
            if (site.target.name.empty() ||
                !isAnchorName(site.target.name)) {
                continue;
            }
            if (fa.flow.stmtDeps[site.blockIdx][site.stmtIdx] != 0) {
                paramsToAnchor = true;
                break;
            }
        }
        bfv.paramsToAnchor = paramsToAnchor;
    }

    // --- Interprocedural flow features (FF 10-11) -------------------
    // For every call site targeting Fn, backtrack the argument
    // registers in the *caller* (Table 2) and classify string
    // constants (PT/MT rule).
    std::vector<std::set<std::string>> strings(n);
    for (const auto &site : cg.sites()) {
        if (!site.resolvesToFunction())
            continue;
        const FnId callee = site.target.fn;
        const FnId caller = site.caller;
        const FunctionAnalysis &callerFa = pa.fn(caller);
        const int calleeParams = pa.fn(callee).params.count;
        if (calleeParams == 0)
            continue;

        const analysis::ArgBacktracker tracker = callerFa.backtracker();
        for (int arg = 0; arg < calleeParams; ++arg) {
            const auto consts =
                tracker.resolveArg(site.blockIdx, site.stmtIdx, arg);
            std::size_t classified = 0;
            for (std::uint64_t value : consts) {
                if (classified >= kMaxStringsPerArg)
                    break;
                if (auto s = tracker.classifyString(value)) {
                    strings[callee].insert(s->text);
                    ++classified;
                }
            }
        }
    }
    for (FnId id = 0; id < n; ++id) {
        repr.records[id].bfv.argsHaveStrings = !strings[id].empty();
        repr.records[id].bfv.numDistinctStrings =
            static_cast<double>(strings[id].size());
    }

    for (FnId id = 0; id < n; ++id) {
        if (repr.records[id].isCustom)
            repr.customFns.push_back(id);
        if (repr.records[id].isAnchor)
            repr.anchorFns.push_back(id);
    }

    return repr;
}

} // namespace fits::core
