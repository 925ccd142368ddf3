/**
 * @file
 * Density-matrix register for open-system simulation (Fig. 23).
 *
 * Sized for the paper's decoherence study (6-qubit benchmarks: 64x64
 * matrices).  Unitaries are applied locally from the left and right;
 * relaxation (T1) and dephasing (T2) enter as exact per-step Kraus
 * channels on each qubit.
 *
 * The row-major entries of rho are vec(rho), a state vector of 2n
 * qubits with the row bits high: U rho U^dag is the state vector's
 * own 1Q/2Q kernel run twice, U at the row strides and conj(U) at the
 * column strides, and one qubit's Kraus step is one pass.  No kernel
 * allocates or runs on the pool.
 *
 * The schedule simulator (sim/pulse_sim.h) runs each qubit's Kraus
 * step in two parts: an entrywise scale S, folded into the per-entry
 * tables of the ZZ phase (phaseTable, scaleTable, multiplyEntries),
 * and damping's transfer rho00 += gamma rho11, the one part that
 * mixes entries (transferPopulation).
 *
 * The simulator also splits registers of 5 or more qubits on the idle
 * qubits of each layer into XOR classes, flat arrays of blocks that
 * the same kernels run on across the shared pool: the simulator's one
 * level of parallelism, bit-identical to the whole register at every
 * size.  The kernel-equivalence suite
 * (tests/sim/kernel_equivalence_test.cc) pins every kernel to a dense
 * 2^n x 2^n oracle within 1e-10.  See docs/performance.md.
 */

#ifndef QZZ_SIM_DENSITY_MATRIX_H
#define QZZ_SIM_DENSITY_MATRIX_H

#include <span>
#include <vector>

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
     *  (p[i] = exp(-i E[i] dt), precomputed by the caller): the
     *  phaseTable() of the whole matrix, then multiplyEntries(). */
    void applyPhaseVector(const la::CVector &p);

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
     * qubits.  Both vectors must have numQubits() entries.  Both
     * channels of one qubit land in a single sweep over the matrix.
     */
    void applyDecoherence(const std::vector<double> &gamma,
                          const std::vector<double> &keep);

    /** One qubit's step of the sweep above: damping with decay
     *  probability @p gamma, then dephasing with retention @p keep,
     *  on qubit @p q; nothing when gamma is 0 and keep is 1. */
    void applyDecoherence(int q, double gamma, double keep);

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
    size_t stride(int q) const { return size_t(1) << bitPos(q); }
    std::span<la::cplx> entries() { return {rho_.data(), dim() * dim()}; }
};

/**
 * @name Block kernels
 * The density-matrix kernels, on a flat array of @p cols x @p cols
 * row-major blocks stored one after another.  A whole DensityMatrix
 * is one block; an XOR class of the layer split (sim/pulse_sim.cc) is
 * 2^m, block a holding the rows of part a and the columns of part
 * a ^ x.  A qubit at stride @p s inside a block is the row bit at
 * stride s * cols and the column bit at stride s.  Defined in
 * sim/state_vector_kernels.cc.
 * @{
 */

/** rho -> U rho U^dag in every block, U on the qubit at stride @p s. */
void conjugate1Q(std::span<la::cplx> blocks, size_t cols, const la::Mat2 &u,
                 size_t s);

/** rho -> U rho U^dag in every block, U on the qubits at strides
 *  (@p s_hi, @p s_lo). */
void conjugate2Q(std::span<la::cplx> blocks, size_t cols, const la::Mat4 &u,
                 size_t s_hi, size_t s_lo);

/**
 * The ZZ phase table of a layer part: entry (r, c) of block a is
 * p[rows[a * cols + r]] * conj(p[columns[a * cols + c]]), from the
 * full-register row and column of that entry (@p rows and
 * @p columns hold one index per row of @p out).  Every entry is
 * computed by this one loop, so a part gets the bits the whole matrix
 * gets.
 */
void phaseTable(std::span<la::cplx> out, size_t cols,
                std::span<const size_t> rows,
                std::span<const size_t> columns,
                std::span<const la::cplx> p);

/**
 * The entrywise scale S of one step's Kraus channel on every qubit,
 * indexed as phaseTable(): the product, qubit 0 first, of 1 on a
 * qubit's 00 population, 1 - gamma[q] on its 11 population and
 * sqrt(1 - gamma[q]), then keep[q], on its coherences.  After the
 * transfers of every qubit it is the sweep of
 * DensityMatrix::applyDecoherence.
 */
void scaleTable(std::span<la::cplx> out, size_t cols,
                std::span<const size_t> rows,
                std::span<const size_t> columns,
                const std::vector<double> &gamma,
                const std::vector<double> &keep);

/** One qubit's Kraus step in every block, on the qubit at stride
 *  @p s: damping with decay probability @p gamma, then dephasing with
 *  retention @p keep; nothing when gamma is 0 and keep is 1. */
void decohere(std::span<la::cplx> blocks, size_t cols, size_t s,
              double gamma, double keep);

/** Damping's transfer b00 += gamma * b11 in every block, on the qubit
 *  at stride @p s; nothing when gamma is 0. */
void transferPopulation(std::span<la::cplx> blocks, size_t cols, size_t s,
                        double gamma);

/** The same transfer for a split qubit, which indexes the blocks: the
 *  blocks @p stride entries apart pair up entry by entry as its
 *  populations (b00, b11).  Only an XOR class that reads 0 on the
 *  qubit holds them. */
void transferPopulationAcross(std::span<la::cplx> blocks, size_t stride,
                              double gamma);

/** @} */

} // namespace qzz::sim

#endif // QZZ_SIM_DENSITY_MATRIX_H
