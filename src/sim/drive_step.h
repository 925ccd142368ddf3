/**
 * @file
 * Shared drive-propagator machinery for the schedule simulators.
 *
 * Both the state-vector and the density-matrix simulator integrate
 * the same Strang split, and within one layer every gate of a kind
 * shares one pulse program — so the step propagator is a function of
 * (gate kind, step index, step width) only.  StepPropagatorMemo
 * caches exactly that: the first request for a (kind, step) pair at a
 * given dt pays the matrix exponential; every later request — the
 * other gates of the layer, the remaining layers with the same dt,
 * repeated fidelity evaluations through one simulator — is an array
 * lookup.  Entries are bit-identical to the un-memoized path
 * (expPauli / expmPropagator4 transcribe the CMatrix kernels), so
 * memoization never changes results.
 */

#ifndef QZZ_SIM_DRIVE_STEP_H
#define QZZ_SIM_DRIVE_STEP_H

#include <cstdint>
#include <vector>

#include "circuit/gate.h"
#include "linalg/matrix.h"
#include "pulse/library.h"

namespace qzz::sim {

/** Map a native gate kind onto its pulse program key; fatal for
 *  gates without pulse programs. */
pulse::PulseGate pulseGateOf(const ckt::Gate &g);

/** Dense 0..2 index for the three pulsed gate kinds. */
int pulseKindIndex(pulse::PulseGate k);

/** Instantaneous 2x2 drive propagator over @p dt at pulse time
 *  @p t_mid, written into @p out (no heap). */
void drive1QStep(const pulse::PulseProgram &p, double t_mid, double dt,
                 la::Mat2 &out);

/** Instantaneous 4x4 drive propagator over @p dt (drive + coupling
 *  channels; the intra-pair ZZ lives in the diagonal bath). */
void drive2QStep(const pulse::PulseProgram &p, double t_mid, double dt,
                 la::Mat4 &out);

/**
 * Per-(gate kind, step) propagator cache for one integrator run.
 *
 * Keyed on the step width: a layer whose dt differs from the cached
 * one resets that kind's slots (schedules mix layer durations, but
 * most layers of a schedule quantize to the same dt, so entries
 * survive across layers).  Not thread-safe; each run owns its memo.
 */
class StepPropagatorMemo
{
  public:
    /** The 2x2 propagator for 1Q kind @p k at step @p step of width
     *  @p dt, computing and caching it on first use. */
    const la::Mat2 &get1Q(const pulse::PulseProgram &p,
                          pulse::PulseGate k, size_t step, double dt);

    /** The 4x4 propagator for 2Q kind @p k (same contract). */
    const la::Mat4 &get2Q(const pulse::PulseProgram &p,
                          pulse::PulseGate k, size_t step, double dt);

    /** Distinct propagators computed (i.e. cache misses) so far. */
    uint64_t misses() const { return misses_; }

  private:
    template <typename M> struct Slot
    {
        double dt = -1.0;
        std::vector<M> mats;
        std::vector<uint8_t> have;
    };

    template <typename M>
    void prepare(Slot<M> &slot, size_t step, double dt);

    Slot<la::Mat2> slots1_[3];
    Slot<la::Mat4> slots4_[3];
    uint64_t misses_ = 0;
};

} // namespace qzz::sim

#endif // QZZ_SIM_DRIVE_STEP_H
