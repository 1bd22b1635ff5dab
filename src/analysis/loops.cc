#include "loops.hh"

#include "analysis/scratch.hh"

namespace fits::analysis {

bool
LoopInfo::dominates(std::size_t a, std::size_t b) const
{
    if (b >= idom.size() || idom[b] == npos)
        return false;
    std::size_t cur = b;
    while (true) {
        if (cur == a)
            return true;
        if (idom[cur] == cur) // reached the entry
            return false;
        cur = idom[cur];
        if (cur == npos)
            return false;
    }
}

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

    // Postorder, then RPO index per block.
    auto &scratch = detail::scratch();
    detail::postorder(cfg, scratch);
    const auto &seen = scratch.seen;
    const auto &order = scratch.order;
    auto &rpoIndex = scratch.rpoIndex;
    rpoIndex.assign(n, LoopInfo::npos);
    {
        std::size_t idx = 0;
        for (auto it = order.rbegin(); it != order.rend(); ++it)
            rpoIndex[*it] = idx++;
    }

    // Cooper/Harvey/Kennedy "engineering a simple, fast dominator
    // algorithm" fixpoint.
    auto intersect = [&](std::size_t a, std::size_t b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = info.idom[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = info.idom[b];
        }
        return a;
    };

    info.idom[cfg.entry()] = cfg.entry();
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const std::size_t b = *it;
            if (b == cfg.entry())
                continue;
            std::size_t newIdom = LoopInfo::npos;
            for (std::size_t p : cfg.preds(b)) {
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

    // Back edges: a -> h where h dominates a.
    for (std::size_t a = 0; a < n; ++a) {
        if (!seen[a])
            continue;
        for (std::size_t h : cfg.succs(a)) {
            if (info.dominates(h, a))
                info.backEdges.emplace_back(a, h);
        }
    }

    // Natural loop bodies: header plus everything reaching the latch
    // without passing through the header.
    auto &stack = scratch.stack;
    auto &visited = scratch.visited;
    for (const auto &[latch, header] : info.backEdges) {
        info.inLoop[header] = true;
        stack.assign(1, latch);
        visited.assign(n, 0);
        visited[header] = 1;
        while (!stack.empty()) {
            const std::size_t b = stack.back();
            stack.pop_back();
            if (visited[b])
                continue;
            visited[b] = 1;
            info.inLoop[b] = true;
            for (std::size_t p : cfg.preds(b))
                stack.push_back(p);
        }
    }

    // Loop-controlling branches: headers and latches containing a
    // conditional side exit.
    auto containsBranch = [&](std::size_t b) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == ir::StmtKind::Branch)
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

} // namespace fits::analysis
