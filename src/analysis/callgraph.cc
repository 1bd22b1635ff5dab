#include "callgraph.hh"

namespace fits::analysis {

CallGraph
CallGraph::build(const LinkedProgram &linked,
                 const std::vector<const UcseTargets *> *ucseByFn)
{
    CallGraph cg;
    const std::size_t fnCount = linked.fnCount();
    cg.callerOffsets_.resize(fnCount + 1);

    for (FnId caller = 0; caller < fnCount; ++caller) {
        cg.callerOffsets_[caller] = cg.sites_.size();
        const FnRef &ref = linked.fn(caller);
        const UcseTargets *ucse = ucseByFn != nullptr &&
                                         caller < ucseByFn->size()
                                     ? (*ucseByFn)[caller]
                                     : nullptr;

        for (std::size_t bi = 0; bi < ref.fn->blocks.size(); ++bi) {
            const ir::BasicBlock &block = ref.fn->blocks[bi];
            for (std::size_t si = 0; si < block.stmts.size(); ++si) {
                const ir::Stmt &stmt = block.stmts[si];
                if (stmt.kind != ir::StmtKind::Call)
                    continue;

                auto &site = cg.sites_.emplace_back();
                site.caller = caller;
                site.blockIdx = bi;
                site.stmtIdx = si;
                site.stmtAddr = block.stmtAddr(si);
                site.indirect = stmt.indirect;
                if (!stmt.indirect) {
                    site.target = linked.resolve(ref.image, stmt.target);
                    continue;
                }
                const std::vector<Addr> *targets = nullptr;
                if (ucse != nullptr) {
                    auto it = ucse->resolvedCalls.find(site.stmtAddr);
                    if (it != ucse->resolvedCalls.end())
                        targets = &it->second;
                }
                // An unresolved indirect call keeps one site with an
                // Unknown target, so engines can account for the
                // interrupted data flow; a resolved one gets a site per
                // target.
                if (targets == nullptr)
                    continue;
                const CallSite proto = site;
                for (std::size_t t = 0; t < targets->size(); ++t) {
                    CallSite &out =
                        t == 0 ? cg.sites_.back()
                               : cg.sites_.emplace_back(proto);
                    out.target =
                        linked.resolve(ref.image, (*targets)[t]);
                }
            }
        }
    }
    cg.callerOffsets_[fnCount] = cg.sites_.size();

    // Callee index: a counting sort of the resolved sites by target,
    // stable in site order.
    cg.calleeOffsets_.assign(fnCount + 1, 0);
    for (const CallSite &site : cg.sites_) {
        if (site.resolvesToFunction())
            ++cg.calleeOffsets_[site.target.fn + std::size_t{1}];
    }
    for (std::size_t f = 0; f < fnCount; ++f)
        cg.calleeOffsets_[f + 1] += cg.calleeOffsets_[f];
    cg.calleeSites_.resize(cg.calleeOffsets_[fnCount]);
    std::vector<std::size_t> fill(cg.calleeOffsets_.begin(),
                                  cg.calleeOffsets_.end() - 1);
    for (std::size_t idx = 0; idx < cg.sites_.size(); ++idx) {
        const CallSite &site = cg.sites_[idx];
        if (site.resolvesToFunction())
            cg.calleeSites_[fill[site.target.fn]++] = idx;
    }

    return cg;
}

std::span<const std::size_t>
CallGraph::sitesOfCallee(FnId callee) const
{
    if (callee + std::size_t{1} >= calleeOffsets_.size())
        return {};
    return {calleeSites_.data() + calleeOffsets_[callee],
            calleeOffsets_[callee + 1] - calleeOffsets_[callee]};
}

std::size_t
CallGraph::callerSiteCount(FnId callee) const
{
    return sitesOfCallee(callee).size();
}

} // namespace fits::analysis
