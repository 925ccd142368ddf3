/**
 * @file
 * State-vector register for circuit-scale simulation (4-12 qubits).
 *
 * Bit convention matches la::embed(): qubit 0 is the most significant
 * bit of the basis index.  Local gate application is O(2^n) per gate;
 * diagonal phases (the always-on ZZ bath) are applied from a
 * precomputed per-basis-state energy table.
 */

#ifndef QZZ_SIM_STATE_VECTOR_H
#define QZZ_SIM_STATE_VECTOR_H

#include <array>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace qzz::sim {

/** An n-qubit pure state. */
class StateVector
{
  public:
    /** |0...0> on @p n qubits. */
    explicit StateVector(int n);

    int numQubits() const { return n_; }
    size_t dim() const { return amps_.size(); }

    la::CVector &amplitudes() { return amps_; }
    const la::CVector &amplitudes() const { return amps_; }

    /** Apply a 2x2 unitary to qubit @p q. */
    void apply1Q(const la::Mat2 &u, int q);

    /** Apply a 4x4 unitary to qubits (@p q_hi, @p q_lo), with q_hi
     *  the most significant factor of the 4x4 matrix. */
    void apply2Q(const la::Mat4 &u, int q_hi, int q_lo);

    /** Apply exp(-i theta/2 Z) on qubit @p q (virtual RZ). */
    void applyRz(int q, double theta);

    /** Multiply amplitude k by the precomputed unit phase p[k]. */
    void applyPhaseVector(const la::CVector &p);

    /** Probability that qubit @p q reads 1. */
    double probabilityOne(int q) const;

    /** <this|other>. */
    la::cplx overlap(const StateVector &other) const;

    /** |<this|other>|^2. */
    double fidelity(const StateVector &other) const;

    /** 2-norm (1 up to integrator error). */
    double norm() const;

  private:
    int n_;
    la::CVector amps_;

    int bitPos(int q) const { return n_ - 1 - q; }
};

/** m[i] *= t[i] for every i: the phase step of both registers, one
 *  complex multiply per entry.  Defined in sim/state_vector_kernels.cc
 *  with the other hot loops. */
void multiplyEntries(std::span<la::cplx> m, std::span<const la::cplx> t);

/**
 * Per-basis-state ZZ energies: E[k] = sum_edges lambda_e z_u(k) z_v(k),
 * the diagonal bath Hamiltonian of a device.
 */
std::vector<double>
zzEnergyTable(int n, const std::vector<std::array<int, 2>> &edges,
              const std::vector<double> &lambdas);

} // namespace qzz::sim

#endif // QZZ_SIM_STATE_VECTOR_H
