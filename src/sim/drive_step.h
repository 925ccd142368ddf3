/**
 * @file
 * Drive propagators for the schedule simulators.
 *
 * Both the state-vector and the density-matrix simulator integrate
 * the same Strang split, and within one layer every gate of a kind
 * shares one pulse program — so the step propagator is a function of
 * (gate kind, step index, step width) only.  The simulator computes
 * each once per run, before any fan-out (sim/pulse_sim.cc), with the
 * fixed-size expPauli / expmPropagator4 kernels, which transcribe the
 * CMatrix ones.
 */

#ifndef QZZ_SIM_DRIVE_STEP_H
#define QZZ_SIM_DRIVE_STEP_H

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

} // namespace qzz::sim

#endif // QZZ_SIM_DRIVE_STEP_H
