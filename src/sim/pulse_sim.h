/**
 * @file
 * Pulse-level simulation of a full schedule on a device: one Strang
 * integrator for both registers, the state vector (fig. 20) and the
 * density matrix with T1/T2 (fig. 23, sim/lindblad.h).
 *
 * Within each physical layer the register evolves under
 *   H(t) = sum_gates H_gate(t)  +  sum_couplings lambda_e sz sz
 * where H_gate holds the drive channels of that gate's pulse program.
 * Integration uses Strang splitting: a half-step of the (diagonal,
 * always-on) ZZ bath, the per-gate local propagators over dt, and
 * another ZZ half-step.  Local propagators are exact matrix
 * exponentials of the instantaneous drive Hamiltonian, computed once
 * per time step per *gate kind* (all simultaneous SX gates share one
 * 2x2, etc.).  When no channel sits between two steps, the trailing
 * half-step of one and the leading half-step of the next merge into
 * one full-step sweep.  A density matrix on a device with a finite
 * T1 or T2 keeps the halves apart and splits each step's Kraus
 * channel in two.  Damping's transfer rho00 += gamma rho11 runs per
 * qubit after each trailing half-step.  The entrywise rest S (decay
 * of the excited population, damping and dephasing of the
 * coherences) is diagonal on vec(rho), so it is folded into the next
 * step's leading half-step table, and one S pass closes the layer.
 * Every phase multiply is one complex multiply per entry against a
 * table built once per step width of a segment.
 *
 * Qubits without pulses simply sit in the ZZ bath — exactly the
 * physics the paper's scheduling fights.
 *
 * Both registers split each segment of the schedule on up to two
 * qubits none of its gates touches, from 2^9 stored entries on (a
 * state vector of 9 or more qubits, a density matrix of 5 or more).
 * A segment is a run of consecutive layers, virtual RZ layers
 * included, over which its split qubits stay idle; each segment takes
 * the idle qubits that stay idle longest.  On a state vector, fixing
 * those bits leaves 2^m sub-registers: the diagonal ZZ phase, every
 * gate and every RZ act inside one (an RZ on a split qubit is one
 * phase per sub-register).  On a density matrix, every operation of
 * the segment — conjugation by the gates, the ZZ phase, dephasing and
 * damping, even on the idle qubits, and the RZs — keeps the XOR r ^ c
 * of an entry rho[r, c] fixed on those bits, so the 2^m XOR classes
 * fall apart instead.  A class is one flat array of 2^m blocks, and
 * the density-matrix kernels run on it as on a whole matrix; it
 * builds its tables from each entry's full-register row and column.
 * Each part gathers once, integrates every layer of the segment on
 * its own across the shared pool, with no barrier between steps or
 * layers, and scatters once; this split is the simulator's only
 * parallelism, and the register kernels themselves are sequential
 * loops.  Every entry sees the same kernels, in the same order, with
 * the same phases, so results are bit-identical to the unsplit loop
 * at every register size.
 */

#ifndef QZZ_SIM_PULSE_SIM_H
#define QZZ_SIM_PULSE_SIM_H

#include "core/schedule.h"
#include "device/device.h"
#include "pulse/library.h"
#include "sim/sim_metrics.h"
#include "sim/state_vector.h"

namespace qzz::sim {

/** Integration controls for the schedule simulators. */
struct PulseSimOptions
{
    /** Strang step (ns).  0.05 keeps splitting error ~1e-5. */
    double dt = 0.05;
    /** Global scale on all coupling strengths (0 disables ZZ —
     *  used by calibration tests). */
    double crosstalk_scale = 1.0;
    /** Publish qzz_sim_* metrics to the global MetricsRegistry. */
    bool telemetry = true;
};

/** Simulates schedules on one register type (StateVector or
 *  DensityMatrix) against one device + pulse library. */
template <class Reg> class ScheduleSimulator
{
  public:
    ScheduleSimulator(const dev::Device &device,
                      const pulse::PulseLibrary &library,
                      PulseSimOptions options = {});

    /** Evolve |0..0> through the schedule. */
    Reg run(const core::Schedule &schedule) const;

    /** Evolve a caller-prepared state through the schedule. */
    void run(const core::Schedule &schedule, Reg &reg) const;

  private:
    // Owned copies: simulators must stay valid regardless of the
    // lifetime of the arguments they were built from.
    dev::Device device_;
    pulse::PulseLibrary library_;
    PulseSimOptions options_;
    std::vector<double> zz_energies_;
    SimMetrics metrics_;
};

/** The closed-system simulator of pure states (fig. 20). */
using PulseScheduleSimulator = ScheduleSimulator<StateVector>;

/** Unit phase table p[k] = exp(-i energies[k] dt), precomputed once
 *  per step width by the simulators and applied per step. */
la::CVector phaseVector(const std::vector<double> &energies, double dt);

} // namespace qzz::sim

#endif // QZZ_SIM_PULSE_SIM_H
