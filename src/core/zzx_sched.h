/**
 * @file
 * ZZXSched: the paper's ZZ-aware scheduler (Algorithm 2).
 *
 * Iteratively schedules the schedulable-gate frontier:
 *  - Case 1 (only single-qubit gates): run unconstrained alpha-optimal
 *    suppression; schedule the gates on the cut side with more gates
 *    (complete suppression on bipartite topologies), supplementing the
 *    rest of that side with identity gates.
 *  - Case 2 (two-qubit gates present): TwoQSchedule — try scheduling
 *    all two-qubit gates at once; when the suppression requirement R
 *    is violated, split the two closest gates into seed groups and
 *    grow them farthest-gate-first while R stays satisfied
 *    (Theorem 6.1 then guarantees the top-K closest gates land in
 *    different layers).
 *
 * Identity supplementation covers S minus the qubits of the gates that
 * are actually placed in the layer, so the driven set equals S exactly
 * and the realized regions match the optimized cut.
 *
 * This header holds the algorithm's options and its gate distance;
 * the walk itself, shared by every ZZ-aware policy, runs behind
 * core::schedule() (core/sched_walk.h).
 */

#ifndef QZZ_CORE_ZZX_SCHED_H
#define QZZ_CORE_ZZX_SCHED_H

#include "core/schedule.h"
#include "core/suppression.h"
#include "device/device.h"

namespace qzz::core {

/** Options of Algorithm 2. */
struct ZzxOptions
{
    /** Knobs of the inner alpha-optimal suppression algorithm. */
    SuppressionOptions suppression;
    /**
     * Suppression requirement R: NQ <= nq_max and NC <= nc_max.
     * Values < 0 mean "derive from the device" as in Sec. 7.3:
     * NQ < max vertex degree (with a floor of 2 so that two-qubit
     * gates stay schedulable on degree-2 devices) and NC <= |E| / 2.
     */
    int nq_max = -1;
    int nc_max = -1;
};

/** Resolve the defaults of R against a device. */
ZzxOptions resolveZzxOptions(ZzxOptions opt, const dev::Device &dev);

/**
 * Distance between two-qubit gates (Definition 6.1): the sum of the
 * four endpoint shortest-path distances.
 */
int gateDistance(const ckt::Gate &a, const ckt::Gate &b,
                 const std::vector<std::vector<int>> &dist);

} // namespace qzz::core

#endif // QZZ_CORE_ZZX_SCHED_H
