/**
 * @file
 * Density-matrix register for open-system simulation (Fig. 23).
 *
 * Sized for the paper's decoherence study (6-qubit benchmarks: 64x64
 * matrices).  Unitaries are applied locally from the left and right;
 * relaxation (T1) and dephasing (T2) enter as exact per-step Kraus
 * channels on each qubit.
 *
 * The gate kernels run U rho U^dag as a row pass of U and a column
 * pass of conj(U) over the d^2 entries, on the state vector's index
 * walk (sim/stride_walk.h); one qubit's Kraus step is one pass.  No
 * kernel allocates or runs on the pool.
 *
 * The schedule simulator (sim/pulse_sim.h) splits registers of 5 or
 * more qubits on the idle qubits of each layer into blocks that are
 * themselves DensityMatrix objects, and runs them across the shared
 * pool: that split is the simulator's one level of parallelism.  The
 * two-table applyPhaseVector() and applyDecoherenceAcross() exist for
 * those blocks, and apply the same per-entry arithmetic as the
 * whole-register kernels, so the split is bit-identical at every
 * register size.  The kernel-equivalence suite
 * (tests/sim/kernel_equivalence_test.cc) pins every kernel to a dense
 * 2^n x 2^n oracle within 1e-10.  See docs/performance.md.
 */

#ifndef QZZ_SIM_DENSITY_MATRIX_H
#define QZZ_SIM_DENSITY_MATRIX_H

#include <span>

#include "linalg/matrix.h"
#include "sim/state_vector.h"

namespace qzz::sim {

/** An n-qubit mixed state. */
class DensityMatrix
{
  public:
    /** |0...0><0...0| on @p n qubits. */
    explicit DensityMatrix(int n);

    /** Pure-state density matrix. */
    static DensityMatrix fromPure(const StateVector &psi);

    int numQubits() const { return n_; }
    size_t dim() const { return size_t(1) << n_; }

    la::CMatrix &matrix() { return rho_; }
    const la::CMatrix &matrix() const { return rho_; }

    /** rho -> U_q rho U_q^dag for a 2x2 U. */
    void apply1Q(const la::Mat2 &u, int q);

    /** rho -> U rho U^dag for a 4x4 U on (q_hi, q_lo). */
    void apply2Q(const la::Mat4 &u, int q_hi, int q_lo);

    /** Virtual RZ. */
    void applyRz(int q, double theta);

    /** rho[r,c] *= p[r] * conj(p[c]) for a unit-modulus phase vector
     *  (p[i] = exp(-i E[i] dt), precomputed by the caller). */
    void applyPhaseVector(const la::CVector &p);

    /** rho[r,c] *= p_row[r] * conj(p_col[c]): the phase of a block
     *  whose rows and columns are different slices of one register. */
    void applyPhaseVector(std::span<const la::cplx> p_row,
                          std::span<const la::cplx> p_col);

    /** Amplitude damping with excited-state decay probability
     *  @p gamma on qubit @p q. */
    void applyAmplitudeDamping(int q, double gamma);

    /** Pure dephasing: off-diagonals in @p q scaled by @p keep. */
    void applyDephasing(int q, double keep);

    /**
     * Per-qubit decoherence sweep: amplitude damping with decay
     * probability @p gamma[q] followed by dephasing with retention
     * @p keep[q] on every qubit.  Qubits with gamma 0 / keep 1 are
     * skipped, so a heterogeneous device pays only for its lossy
     * qubits.  Both vectors must have numQubits() entries.
     *
     * Fused: both channels for one qubit land in a single sweep over
     * the matrix (applyAmplitudeDamping + applyDephasing make three).
     */
    void applyDecoherence(const std::vector<double> &gamma,
                          const std::vector<double> &keep);

    /** One qubit's step of the sweep above: damping with decay
     *  probability @p gamma, then dephasing with retention @p keep,
     *  on qubit @p q; nothing when gamma is 0 and keep is 1. */
    void applyDecoherence(int q, double gamma, double keep);

    /**
     * The same step for a qubit that is not in the register but
     * indexes two blocks of a larger one: @p lo holds the entries
     * whose row reads 0 on that qubit, @p hi the entries whose row
     * reads 1.  With @p same_column the columns read the same value as
     * the rows, and damping moves @p hi into @p lo; otherwise both
     * blocks are coherences of the qubit, scaled by damping and
     * dephasing.  Per entry, the arithmetic of applyDecoherence().
     */
    static void applyDecoherenceAcross(DensityMatrix &lo, DensityMatrix &hi,
                                       bool same_column, double gamma,
                                       double keep);

    /** <psi| rho |psi>. */
    double expectationPure(const StateVector &psi) const;

    /** tr(rho) (1 up to numerical error). */
    double trace() const;

    /** Probability that qubit @p q reads 1. */
    double probabilityOne(int q) const;

  private:
    int n_;
    la::CMatrix rho_;

    int bitPos(int q) const { return n_ - 1 - q; }
};

} // namespace qzz::sim

#endif // QZZ_SIM_DENSITY_MATRIX_H
