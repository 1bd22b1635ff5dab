#include "cfg.hh"

#include "analysis/scratch.hh"

namespace fits::analysis {

namespace detail {

Scratch &
scratch()
{
    thread_local Scratch s;
    return s;
}

void
postorder(const Cfg &cfg, Scratch &s)
{
    const std::size_t n = cfg.numBlocks();
    s.seen.assign(n, 0);
    s.order.clear();
    s.dfs.clear();
    if (n == 0)
        return;
    s.seen[cfg.entry()] = 1;
    s.dfs.emplace_back(cfg.entry(), 0);
    while (!s.dfs.empty()) {
        auto &[b, next] = s.dfs.back();
        const auto succs = cfg.succs(b);
        if (next < succs.size()) {
            const std::size_t succ = succs[next++];
            if (!s.seen[succ]) {
                s.seen[succ] = 1;
                s.dfs.emplace_back(succ, 0);
            }
        } else {
            s.order.push_back(b);
            s.dfs.pop_back();
        }
    }
}

} // namespace detail

Cfg
Cfg::build(const ir::Function &fn,
           const std::unordered_map<Addr, std::vector<Addr>>
               *resolvedTargets)
{
    const std::size_t n = fn.blocks.size();
    auto &edges = detail::scratch().edges;
    edges.clear();

    // Edges leave the blocks in index order, so the duplicates of an
    // edge are among those its source block added.
    std::size_t rowStart = 0;
    auto addEdge = [&](std::size_t from, std::size_t to) {
        if (to == ir::Function::npos)
            return;
        for (std::size_t e = rowStart; e < edges.size(); ++e) {
            if (edges[e].second == to)
                return;
        }
        edges.emplace_back(from, to);
    };

    for (std::size_t i = 0; i < n; ++i) {
        const ir::BasicBlock &block = fn.blocks[i];
        rowStart = edges.size();

        // Conditional side exits may appear anywhere in the block.
        for (const auto &stmt : block.stmts) {
            if (stmt.kind == ir::StmtKind::Branch)
                addEdge(i, fn.blockIndexAt(stmt.target));
        }

        // Final control transfer.
        const ir::Stmt *term = block.terminator();
        if (term == nullptr) {
            // Implicit fallthrough (also the not-taken path of a
            // trailing Branch).
            if (i + 1 < n)
                addEdge(i, i + 1);
            continue;
        }
        if (term->kind == ir::StmtKind::Jump) {
            if (!term->indirect) {
                addEdge(i, fn.blockIndexAt(term->target));
            } else if (resolvedTargets != nullptr) {
                const Addr stmtAddr =
                    block.stmtAddr(block.stmts.size() - 1);
                auto rt = resolvedTargets->find(stmtAddr);
                if (rt != resolvedTargets->end()) {
                    for (Addr target : rt->second)
                        addEdge(i, fn.blockIndexAt(target));
                }
            }
        }
        // Ret: no successors.
    }

    Cfg cfg;
    cfg.n_ = n;
    if (n == 0)
        return cfg;
    const std::size_t m = edges.size();
    cfg.offsets_.assign(2 * n + 2, 0);
    cfg.edges_.resize(2 * m);
    std::size_t *succOff = cfg.offsets_.data();
    std::size_t *predOff = succOff + n + 1;

    // Successor rows: the edges are already grouped by source.
    for (std::size_t e = 0; e < m; ++e) {
        ++succOff[edges[e].first + 1];
        ++predOff[edges[e].second + 1];
        cfg.edges_[e] = edges[e].second;
    }
    for (std::size_t b = 0; b < n; ++b)
        succOff[b + 1] += succOff[b];

    // Predecessor rows: a stable counting sort by target.
    predOff[0] = m;
    for (std::size_t b = 0; b < n; ++b)
        predOff[b + 1] += predOff[b];
    auto &fill = detail::scratch().order;
    fill.assign(predOff, predOff + n);
    for (std::size_t e = 0; e < m; ++e)
        cfg.edges_[fill[edges[e].second]++] = edges[e].first;
    return cfg;
}

std::vector<bool>
Cfg::reachable() const
{
    std::vector<bool> seen(numBlocks(), false);
    if (numBlocks() == 0)
        return seen;
    auto &stack = detail::scratch().stack;
    stack.assign(1, entry());
    seen[entry()] = true;
    while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        for (std::size_t s : succs(b)) {
            if (!seen[s]) {
                seen[s] = true;
                stack.push_back(s);
            }
        }
    }
    return seen;
}

} // namespace fits::analysis
