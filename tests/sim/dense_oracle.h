/**
 * @file
 * A dense reference integrator for the schedule simulators (tests
 * only).
 *
 * Every operator here is a full 2^n x 2^n matrix applied by dense
 * products: a drive propagator is exp(-i H dt) of the drive
 * Hamiltonian written out in Pauli products, through the heap
 * la::expmPropagator, then placed with la::embed; the ZZ bath is a
 * dense diagonal built from the device couplings; T1/T2 are embedded
 * 2x2 Kraus operators.  Nothing is shared with the register kernels,
 * the fixed-size drive propagators or the simulators' step loop, so
 * agreement to rounding checks all three independently.
 */

#ifndef QZZ_TESTS_SIM_DENSE_ORACLE_H
#define QZZ_TESTS_SIM_DENSE_ORACLE_H

#include <vector>

#include "core/schedule.h"
#include "device/device.h"
#include "linalg/matrix.h"
#include "pulse/library.h"

namespace qzz::sim::oracle {

/** A register as the oracle holds it: a 2^n x 1 column for a pure
 *  state, a 2^n x 2^n matrix for a mixed one. */
using Dense = la::CMatrix;

/** A column holding @p amps. */
Dense column(const la::CVector &amps);

/** psi -> U psi on a column; rho -> U rho U^dag on a square state. */
void apply(const la::CMatrix &u, Dense &state);

/** rho -> sum_k K_k rho K_k^dag. */
void applyKraus(const std::vector<la::CMatrix> &kraus, Dense &rho);

/** Kraus operators of amplitude damping with decay probability
 *  @p gamma on qubit @p q of @p n, embedded. */
std::vector<la::CMatrix> amplitudeDamping(int q, int n, double gamma);

/** Kraus operators of pure dephasing that scales the coherences of
 *  qubit @p q of @p n by @p keep, embedded. */
std::vector<la::CMatrix> dephasing(int q, int n, double keep);

/** exp(-i diag(energies) dt) as a dense matrix. */
la::CMatrix diagonalPhase(const std::vector<double> &energies, double dt);

/** The drive propagator of @p p over a step of @p dt centred on
 *  @p t_mid: 2x2 for single-qubit programs, 4x4 otherwise. */
la::CMatrix driveStep(const pulse::PulseProgram &p, double t_mid,
                      double dt);

/** Per-basis-state ZZ energies of @p device, from its couplings. */
std::vector<double> zzEnergies(const dev::Device &device);

/**
 * Evolve @p state through @p schedule on @p device with Strang step
 * @p dt_opt: per step a ZZ half-step, the drive propagator of every
 * gate whose pulse is still playing, another ZZ half-step and, when
 * @p decoherence is set, the T1/T2 Kraus channels of every qubit.
 */
void runSchedule(const core::Schedule &schedule, const dev::Device &device,
                 const pulse::PulseLibrary &library, double dt_opt,
                 bool decoherence, Dense &state);

/** Largest elementwise |a - b| of two equal-shape matrices. */
double maxAbsDiff(const la::CMatrix &a, const la::CMatrix &b);

} // namespace qzz::sim::oracle

#endif // QZZ_TESTS_SIM_DENSE_ORACLE_H
