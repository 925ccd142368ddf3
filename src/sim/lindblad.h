/**
 * @file
 * Open-system pulse-level schedule simulation: the Fig. 23 study of
 * ZZ crosstalk combined with T1 relaxation and T2 dephasing.
 *
 * The Strang integrator of sim/pulse_sim.h, acting on a density
 * matrix, with exact per-step amplitude-damping and pure-dephasing
 * Kraus channels on every qubit (rates 1/T1(q) and
 * 1/T_phi(q) = 1/T2(q) - 1/(2 T1(q)), read per qubit from the
 * device's calibration snapshot).
 */

#ifndef QZZ_SIM_LINDBLAD_H
#define QZZ_SIM_LINDBLAD_H

#include "sim/density_matrix.h"
#include "sim/pulse_sim.h"

namespace qzz::sim {

/** The open-system simulator of mixed states (fig. 23). */
using DensityMatrixScheduleSimulator = ScheduleSimulator<DensityMatrix>;

} // namespace qzz::sim

#endif // QZZ_SIM_LINDBLAD_H
