/**
 * @file
 * The state-vector hot-path kernels, in their own translation unit
 * so the build can hand just these loops the vector ISA
 * (QZZ_VECTOR_KERNELS): only the per-step sweeps of the Strang
 * integrator gain from it, and the rest of the library keeps baseline
 * codegen.
 */

#include <cmath>

#include "common/error.h"
#include "sim/state_vector.h"

namespace qzz::sim {

using la::cplx;

namespace {

// Finite-input fast path of the std::complex multiply (identical
// bits for the values a state vector can hold); avoids the
// __muldc3 NaN-recovery branch that blocks auto-vectorization.
// Mirrors the helpers in density_matrix_kernels.cc.
inline cplx
cmul(cplx a, cplx b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** a*b + c*d without intermediate complex temporaries. */
inline cplx
cmul2(cplx a, cplx b, cplx c, cplx d)
{
    return {a.real() * b.real() - a.imag() * b.imag() +
                c.real() * d.real() - c.imag() * d.imag(),
            a.real() * b.imag() + a.imag() * b.real() +
                c.real() * d.imag() + c.imag() * d.real()};
}

} // namespace

void
StateVector::apply1Q(const la::Mat2 &u, int q)
{
    require(q >= 0 && q < n_, "apply1Q: qubit out of range");
    const size_t stride = size_t(1) << bitPos(q);
    const cplx u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    const size_t dim = amps_.size();
    cplx *amps = amps_.data();
    for (size_t base = 0; base < dim; base += 2 * stride) {
        for (size_t off = 0; off < stride; ++off) {
            const size_t i0 = base + off;
            const size_t i1 = i0 + stride;
            const cplx a0 = amps[i0], a1 = amps[i1];
            amps[i0] = cmul2(u00, a0, u01, a1);
            amps[i1] = cmul2(u10, a0, u11, a1);
        }
    }
}

void
StateVector::apply2Q(const la::Mat4 &u, int q_hi, int q_lo)
{
    require(q_hi >= 0 && q_hi < n_ && q_lo >= 0 && q_lo < n_,
            "apply2Q: qubit out of range");
    require(q_hi != q_lo, "apply2Q: distinct qubits required");
    const size_t s_hi = size_t(1) << bitPos(q_hi);
    const size_t s_lo = size_t(1) << bitPos(q_lo);
    const size_t dim = amps_.size();
    cplx *amps = amps_.data();
    for (size_t k = 0; k < dim; ++k) {
        if ((k & s_hi) || (k & s_lo))
            continue; // enumerate each 4-tuple once from its 00 member
        const size_t i00 = k;
        const size_t i01 = k | s_lo;
        const size_t i10 = k | s_hi;
        const size_t i11 = k | s_hi | s_lo;
        const cplx a[4] = {amps[i00], amps[i01], amps[i10], amps[i11]};
        const size_t idx[4] = {i00, i01, i10, i11};
        for (int r = 0; r < 4; ++r) {
            cplx acc = cmul(u[r * 4 + 0], a[0]);
            acc += cmul(u[r * 4 + 1], a[1]);
            acc += cmul(u[r * 4 + 2], a[2]);
            acc += cmul(u[r * 4 + 3], a[3]);
            amps[idx[r]] = acc;
        }
    }
}

void
StateVector::applyPhaseVector(const la::CVector &p)
{
    require(p.size() == amps_.size(),
            "applyPhaseVector: table size mismatch");
    // Local pointers: writes through the member vector would force
    // the compiler to re-read size()/data() every iteration (the
    // store may alias the vector object), defeating vectorization.
    const size_t dim = amps_.size();
    cplx *amps = amps_.data();
    const cplx *w = p.data();
    for (size_t k = 0; k < dim; ++k)
        amps[k] = cmul(amps[k], w[k]);
}

} // namespace qzz::sim
