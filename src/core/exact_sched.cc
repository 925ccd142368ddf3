#include "core/exact_sched.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace qzz::core {

std::string
exactStatusName(ExactStatus status)
{
    return status == ExactStatus::Optimal ? "Optimal"
                                          : "BudgetExhausted";
}

namespace {

/** Finite max |zz|, or 0 when there is nothing to weigh by (matches
 *  SuppressionSolver::solve()'s uniform fallback). */
double
zzReference(const std::vector<double> &zz)
{
    double ref = 0.0;
    for (double rate : zz)
        if (std::isfinite(rate) && std::abs(rate) > ref)
            ref = std::abs(rate);
    return ref;
}

/**
 * The branch-and-bound search state.  One Searcher per solve(): all
 * mutation is local, which keeps the const/thread-safe contract of
 * ExactCutSolver::solve() trivially true.
 */
struct Searcher
{
    Searcher(const graph::Graph &graph, double alpha_in,
             bool weighted_in, const ExactLimits &limits)
        : g(graph), alpha(alpha_in), weighted(weighted_in),
          weight(size_t(graph.numEdges()), 1.0),
          max_nodes(limits.max_nodes),
          forced(size_t(graph.numVertices()), 0),
          side(size_t(graph.numVertices()), -1),
          parent(size_t(graph.numVertices())),
          comp_size(size_t(graph.numVertices()), 1)
    {
        for (int v = 0; v < graph.numVertices(); ++v)
            parent[size_t(v)] = v;
    }

    const graph::Graph &g;
    double alpha;
    bool weighted;
    std::vector<double> weight; ///< per-edge cost (1.0 when classic)
    long max_nodes;

    std::vector<int> order;   ///< vertex assignment order
    std::vector<char> forced; ///< vertex pinned to side 1
    std::vector<int> side;    ///< -1 unassigned, else 0/1

    // Rollbackable union-find over same-side regions (union by size,
    // no path compression so undo is a constant-time pop).
    std::vector<int> parent;
    std::vector<int> comp_size;
    std::vector<std::pair<int, int>> trail; ///< (child root, parent root)

    int cur_nc = 0;
    double cur_wnc = 0.0;
    int cur_maxreg = 0;

    long nodes = 0;
    bool exhausted = false;

    double best_primary = 0.0;
    double best_tie = 0.0;
    std::vector<int> best_side;

    int
    findRoot(int v) const
    {
        while (parent[v] != v)
            v = parent[v];
        return v;
    }

    struct Frame
    {
        size_t trail_mark;
        int nc;
        double wnc;
        int maxreg;
    };

    /** Assign @p v to @p s, updating regions and costs. */
    Frame
    enter(int v, int s)
    {
        Frame f{trail.size(), cur_nc, cur_wnc, cur_maxreg};
        side[v] = s;
        cur_maxreg = std::max(cur_maxreg, 1);
        for (const graph::Adjacent &a : g.neighbors(v)) {
            if (side[a.to] != s)
                continue;
            ++cur_nc;
            cur_wnc += weight[size_t(a.edge)];
            int ra = findRoot(v);
            int rb = findRoot(a.to);
            if (ra == rb)
                continue;
            if (comp_size[ra] < comp_size[rb])
                std::swap(ra, rb);
            parent[rb] = ra;
            comp_size[ra] += comp_size[rb];
            trail.emplace_back(rb, ra);
            cur_maxreg = std::max(cur_maxreg, comp_size[ra]);
        }
        return f;
    }

    void
    leave(int v, const Frame &f)
    {
        while (trail.size() > f.trail_mark) {
            auto [child, par] = trail.back();
            trail.pop_back();
            comp_size[par] -= comp_size[child];
            parent[child] = child;
        }
        side[v] = -1;
        cur_nc = f.nc;
        cur_wnc = f.wnc;
        cur_maxreg = f.maxreg;
    }

    void
    dfs(size_t i)
    {
        if (i == order.size()) {
            const double primary =
                alpha * double(cur_maxreg) +
                (weighted ? cur_wnc : double(cur_nc));
            const double tie =
                alpha * double(cur_maxreg) + double(cur_nc);
            if (primary < best_primary ||
                (primary == best_primary && tie < best_tie)) {
                best_primary = primary;
                best_tie = tie;
                best_side = side;
            }
            return;
        }
        const int v = order[i];
        for (int s : {0, 1}) {
            if (forced[v] && s == 0)
                continue;
            ++nodes;
            if (nodes > max_nodes) {
                exhausted = true;
                return;
            }
            const Frame f = enter(v, s);
            // Admissible bound: assigned same-side edges and the
            // largest formed region can only grow as the remaining
            // vertices are assigned (NQ >= 1 always).
            const double lb_nq =
                alpha * double(std::max(1, cur_maxreg));
            const double lb_primary =
                lb_nq + (weighted ? cur_wnc : double(cur_nc));
            const double lb_tie = lb_nq + double(cur_nc);
            const bool prune =
                lb_primary > best_primary ||
                (lb_primary == best_primary && lb_tie >= best_tie);
            if (!prune)
                dfs(i + 1);
            leave(v, f);
            if (exhausted)
                return;
        }
    }
};

} // namespace

double
cutPrimaryObjective(const SuppressionMetrics &metrics, double alpha,
                    const std::vector<double> *edge_zz)
{
    double cost = double(metrics.nc);
    if (edge_zz != nullptr) {
        const double ref = zzReference(*edge_zz);
        if (ref > 0.0) {
            require(edge_zz->size() ==
                        metrics.unsuppressed_edge.size(),
                    "cutPrimaryObjective: edge_zz size does not match "
                    "the cut's edge count");
            cost = 0.0;
            for (size_t e = 0; e < edge_zz->size(); ++e)
                if (metrics.unsuppressed_edge[e])
                    cost += std::abs((*edge_zz)[e]) / ref;
        }
    }
    return alpha * double(metrics.nq) + cost;
}

ExactCutSolver::ExactCutSolver(const graph::Graph &g) : g_(g) {}

ExactCutResult
ExactCutSolver::solve(const std::vector<int> &q_in,
                      const SuppressionOptions &opt,
                      const ExactLimits &limits) const
{
    const int n = g_.numVertices();
    const int m = g_.numEdges();

    std::vector<int> q = q_in;
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    for (int v : q)
        require(v >= 0 && v < n,
                "ExactCutSolver::solve: qubit out of range");

    // Weighting mirrors SuppressionSolver::solve(): magnitudes
    // normalized by the strongest coupler, uniform fallback when no
    // finite nonzero rate exists.
    const std::vector<double> *edge_zz = opt.edge_zz;
    double zz_ref = 0.0;
    if (edge_zz != nullptr) {
        require(int(edge_zz->size()) == m,
                "ExactCutSolver::solve: edge_zz size does not match "
                "the topology's edge count");
        zz_ref = zzReference(*edge_zz);
        if (zz_ref <= 0.0)
            edge_zz = nullptr;
    }
    const bool weighted = edge_zz != nullptr;

    const MemoKey key{q, opt.alpha, weighted, limits.max_nodes};
    {
        std::lock_guard<std::mutex> lock(memo_mutex_);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
    }

    Searcher s(g_, opt.alpha, weighted, limits);
    if (weighted)
        for (int e = 0; e < m; ++e)
            s.weight[size_t(e)] =
                std::abs((*edge_zz)[size_t(e)]) / zz_ref;

    // Assignment order: multi-source BFS from Q (vertex 0 when Q is
    // empty), unreached vertices appended in index order — regions
    // around the constrained set form early, so bounds bite early.
    std::vector<char> seen(size_t(n), 0);
    for (int v : q) {
        s.order.push_back(v);
        seen[size_t(v)] = 1;
    }
    if (q.empty() && n > 0) {
        s.order.push_back(0);
        seen[0] = 1;
    }
    for (size_t head = 0; head < s.order.size(); ++head)
        for (const graph::Adjacent &a : g_.neighbors(s.order[head]))
            if (!seen[size_t(a.to)]) {
                seen[size_t(a.to)] = 1;
                s.order.push_back(a.to);
            }
    for (int v = 0; v < n; ++v)
        if (!seen[size_t(v)])
            s.order.push_back(v);

    // Pin Q (the anchor vertex for empty Q) to side 1: the metrics
    // are invariant under a global side flip, so this halves the
    // space without losing any cut.
    for (int v : q)
        s.forced[size_t(v)] = 1;
    if (q.empty() && n > 0)
        s.forced[size_t(s.order[0])] = 1;

    // Seed the incumbent with the trivial cut S = Q (the heuristic's
    // own fallback), so even a zero budget returns a valid cut.
    std::vector<int> trivial(size_t(n), 0);
    for (int v : q)
        trivial[size_t(v)] = 1;
    if (q.empty() && n > 0)
        trivial[size_t(s.order[0])] = 1;
    {
        const SuppressionMetrics tm = evaluateCut(g_, trivial);
        s.best_primary =
            cutPrimaryObjective(tm, opt.alpha, edge_zz);
        s.best_tie = tm.objective(opt.alpha);
        s.best_side = std::move(trivial);
    }

    s.dfs(0);

    ExactCutResult res;
    res.side = std::move(s.best_side);
    res.metrics = evaluateCut(g_, res.side);
    res.objective =
        cutPrimaryObjective(res.metrics, opt.alpha, edge_zz);
    res.tie = res.metrics.objective(opt.alpha);
    res.status = s.exhausted ? ExactStatus::BudgetExhausted
                             : ExactStatus::Optimal;
    res.nodes = s.nodes;

    std::lock_guard<std::mutex> lock(memo_mutex_);
    memo_.emplace(key, res);
    return res;
}

} // namespace qzz::core
