/**
 * @file
 * Solver-optimal scheduling baseline (ROADMAP item 2).
 *
 * ExactCutSolver answers the same query as SuppressionSolver — a cut
 * (S, T) with Q inside one partition minimizing alpha * NQ + NC, or
 * the calibration-weighted alpha * NQ + sum |zz[e]| / max|zz| when
 * per-edge rates are supplied — but *exactly*, by branch-and-bound
 * over vertex side assignments instead of the heuristic dual T-join
 * search.  Intractable in general (the search space is 2^(n-1)), it
 * is fast on the small devices where it matters: as the per-layer
 * optimality oracle for the heuristics (tests/properties, the
 * fig_sched_gap bench) and as the cut source of the paper-grade
 * baseline policy SchedPolicy::Exact (core::schedule()).
 *
 * Search mechanics: vertices are assigned in multi-source BFS order
 * from Q (regions form early, so bounds bite early); a rollbackable
 * union-find tracks same-side regions incrementally; partial NC /
 * weighted-NC / largest-region values are monotone in the assignment,
 * so alpha * max(1, region) + cost is an admissible lower bound.  Q
 * is pinned to side 1 (for empty Q, the first vertex — the metrics
 * are invariant under a global flip), halving the space and making
 * the result deterministic.  Ties between equal-objective cuts break
 * to the classic objective and then to the first candidate in DFS
 * order, so repeated runs are bit-identical.
 *
 * The search budget is a node count, so every result is
 * deterministic and memoizable.  When the budget runs out the best
 * incumbent found so far is returned — seeded with the trivial cut
 * S = Q, so there is always one — with status BudgetExhausted
 * instead of Optimal.
 */

#ifndef QZZ_CORE_EXACT_SCHED_H
#define QZZ_CORE_EXACT_SCHED_H

#include <map>
#include <mutex>
#include <tuple>

#include "core/suppression.h"

namespace qzz::core {

/** Did the branch-and-bound search complete? */
enum class ExactStatus
{
    Optimal,         ///< the full space was searched (modulo pruning)
    BudgetExhausted, ///< budget hit: best incumbent so far returned
};

/** Display name of a status ("Optimal" / "BudgetExhausted"). */
std::string exactStatusName(ExactStatus status);

/** Search budget of ExactCutSolver::solve(). */
struct ExactLimits
{
    /** Branch-and-bound node cap (a node is one tried vertex-side
     *  assignment).  Deterministic: the same instance under the same
     *  cap always returns the same result. */
    long max_nodes = 1000000;
};

/** Outcome of one exact cut search. */
struct ExactCutResult
{
    /** Vertex side (0/1); all of Q on side 1. */
    std::vector<int> side;
    /** Metrics of the returned cut. */
    SuppressionMetrics metrics;
    /** Primary objective of the cut: classic alpha * NQ + NC, or the
     *  calibration-weighted variant when edge_zz was set. */
    double objective = 0.0;
    /** Classic alpha * NQ + NC tie-break value. */
    double tie = 0.0;
    ExactStatus status = ExactStatus::Optimal;
    /** Branch-and-bound nodes visited. */
    long nodes = 0;
};

/**
 * The primary objective both SuppressionSolver and ExactCutSolver
 * minimize for a given cut: alpha * NQ + NC, or — when @p edge_zz is
 * non-null with at least one finite nonzero rate — the
 * calibration-weighted alpha * NQ + sum_{e unsuppressed}
 * |zz[e]| / max|zz| (identical normalization to
 * SuppressionSolver::solve(), so heuristic and exact costs are
 * directly comparable).
 */
double cutPrimaryObjective(const SuppressionMetrics &metrics,
                           double alpha,
                           const std::vector<double> *edge_zz);

/**
 * Reusable exact solver over one topology graph.  solve() is const
 * and thread-safe; results are memoized per (Q, alpha, weighted,
 * node budget) across calls, so schedulers
 * revisiting the same constrained set (the unconstrained Case-1 cut,
 * repeated TwoQSchedule probes across a batch) pay the search once.
 *
 * As with SuppressionOptions::edge_zz, a given solver instance must
 * always be passed the same per-edge rate vector (the memo key
 * records only its presence, not its contents) — the natural use is
 * one solver per device snapshot.
 */
class ExactCutSolver
{
  public:
    explicit ExactCutSolver(const graph::Graph &g);

    /**
     * Exact counterpart of SuppressionSolver::solve().
     *
     * @param q      qubits that must share a partition (may be empty).
     * @param opt    objective knobs (alpha, optional edge_zz; top_k is
     *               a heuristic-search knob and is ignored).
     * @param limits search budget.
     */
    ExactCutResult solve(const std::vector<int> &q,
                         const SuppressionOptions &opt = {},
                         const ExactLimits &limits = {}) const;

    const graph::Graph &topologyGraph() const { return g_; }

  private:
    graph::Graph g_;

    /** (sorted Q, alpha, weighted?, node cap) -> optimal result. */
    using MemoKey = std::tuple<std::vector<int>, double, bool, long>;
    mutable std::mutex memo_mutex_;
    mutable std::map<MemoKey, ExactCutResult> memo_;
};

} // namespace qzz::core

#endif // QZZ_CORE_EXACT_SCHED_H
