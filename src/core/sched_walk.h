/**
 * @file
 * Every scheduling policy, behind one switch: core::schedule().
 *
 * ParSched (the ASAP baseline) is parSchedule().  Every ZZ-aware
 * policy is Algorithm 2's frontier walk — flush virtual RZ layers,
 * Case 1 (only single-qubit gates schedulable) vs Case 2
 * (TwoQSchedule seeding and growth), placement in S with identity
 * supplementation — and the policies differ only in where a layer's
 * cut comes from:
 *
 *  - Zzx: the alpha-optimal SuppressionSolver (classic
 *    alpha * NQ + NC objective).  The unconstrained Case-1 cut never
 *    changes within a schedule, so it is solved once per schedule.
 *  - ZzxWeighted: the same search scored by calibrated residual ZZ —
 *    the snapshot's per-edge rates (CutTables::zz, see
 *    core::residualZzRate()) — with the classic objective as a
 *    deterministic tie-break.  On a uniform snapshot every decision
 *    ties back to the classic order, so the schedule is
 *    bit-identical to Zzx; on a heterogeneous one the unsuppressed
 *    crosstalk lands on the weakest couplers.
 *  - Exact: the branch-and-bound ExactCutSolver (classic objective),
 *    solver-optimal per layer whenever its node budget suffices; a
 *    layer whose search ran out degrades to its best incumbent.  The
 *    solver memoizes per constrained-qubit set across compiles.
 *  - CycleAware (arXiv 2503.13204): the weighted search with per-edge
 *    accumulated ZZ phase carried across layer boundaries.  The
 *    per-cut policies keep choosing the same optimal cut, so on a
 *    device where some residual is unavoidable (any non-bipartite
 *    one) the same couplings absorb it layer after layer, and
 *    coherent errors compound quadratically.  CycleAware weighs edge
 *    e by
 *
 *        w[e] = |zz[e]| * (1 + acc[e] / max_a acc[a])
 *
 *    where acc[e] sums |zz[e]| x duration over the committed layers
 *    that left e unsuppressed (accumulatedZz()), so the cut rotates
 *    the residual across the device.  While nothing has accumulated
 *    (e.g. every layer of a bipartite 1Q-only schedule) the weights
 *    are |zz[e]| and the policy reproduces ZzxWeighted bit for bit.
 *    Nothing is memoized across layers: the objective itself moves.
 *
 * The suppression requirement R drives TwoQSchedule's splitting the
 * same way under every cut-based policy.
 */

#ifndef QZZ_CORE_SCHED_WALK_H
#define QZZ_CORE_SCHED_WALK_H

#include <optional>

#include "core/exact_sched.h"
#include "core/framework.h"

namespace qzz::core {

/**
 * Per-device tables the cut-based policies query on every layer: the
 * all-pairs qubit distances, the snapshot's per-edge ZZ rates and the
 * cut solver.  Building them costs more than one scheduling query, so
 * callers compiling many circuits against one device (core::Compiler)
 * build them once and share them — they are immutable from the
 * caller's view and thread-safe to share.
 */
struct CutTables
{
    /** Tables for @p policy on @p dev: the exact solver for Exact,
     *  the heuristic solver (planar embedding + dual graph) for every
     *  other policy. */
    CutTables(const dev::Device &dev, SchedPolicy policy);

    std::vector<std::vector<int>> dist;
    /** Per-edge calibrated ZZ rates (edge-id aligned). */
    std::vector<double> zz;
    /** Set unless the tables were built for Exact. */
    std::optional<SuppressionSolver> heuristic;
    /** Set only when the tables were built for Exact. */
    std::optional<ExactCutSolver> exact;
};

/**
 * Layer a native circuit under @p policy.
 *
 * @param policy    the scheduling policy.
 * @param native    native-gate circuit over the device's qubits.
 * @param dev       target device.
 * @param durations per-gate durations.
 * @param opt       Algorithm 2 options (ignored by ParSched); the
 *                  requirement R is resolved against @p dev here.
 * @param tables    per-device tables built for @p policy on @p dev,
 *                  or nullptr to build them for this call.
 */
Schedule schedule(SchedPolicy policy, const ckt::QuantumCircuit &native,
                  const dev::Device &dev, const GateDurations &durations,
                  const ZzxOptions &opt = {},
                  const CutTables *tables = nullptr);

/**
 * Per-edge accumulated ZZ phase of a finished schedule (rad): for
 * each edge, the sum over physical layers that left it unsuppressed
 * of |zz[e]| x layer duration.  The quantity CycleAware balances —
 * its maximum over edges is the figure of merit.
 */
std::vector<double> accumulatedZz(const Schedule &schedule,
                                  const std::vector<double> &zz);

} // namespace qzz::core

#endif // QZZ_CORE_SCHED_WALK_H
