/**
 * @file
 * The state-vector hot-path kernels, in their own translation unit
 * so the build can hand just these loops the vector ISA
 * (QZZ_VECTOR_KERNELS): only the per-step sweeps of the Strang
 * integrator gain from it, and the rest of the library keeps baseline
 * codegen.
 */

#include <algorithm>
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

/** Apply @p m to one 4-tuple (*p00, *p01, *p10, *p11) in place,
 *  each row accumulated left to right.  The rows are written out:
 *  GCC does not vectorize the loops that call this when they are a
 *  loop over an accumulator array or a row helper returning by
 *  value. */
inline void
mix4(const la::Mat4 &m, cplx *p00, cplx *p01, cplx *p10, cplx *p11)
{
    const cplx a0 = *p00, a1 = *p01, a2 = *p10, a3 = *p11;
    cplx acc0 = cmul(m[0], a0);
    acc0 += cmul(m[1], a1);
    acc0 += cmul(m[2], a2);
    acc0 += cmul(m[3], a3);
    cplx acc1 = cmul(m[4], a0);
    acc1 += cmul(m[5], a1);
    acc1 += cmul(m[6], a2);
    acc1 += cmul(m[7], a3);
    cplx acc2 = cmul(m[8], a0);
    acc2 += cmul(m[9], a1);
    acc2 += cmul(m[10], a2);
    acc2 += cmul(m[11], a3);
    cplx acc3 = cmul(m[12], a0);
    acc3 += cmul(m[13], a1);
    acc3 += cmul(m[14], a2);
    acc3 += cmul(m[15], a3);
    *p00 = acc0;
    *p01 = acc1;
    *p10 = acc2;
    *p11 = acc3;
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
    if (stride == 1) {
        // The lowest qubit pairs adjacent amplitudes: one loop over
        // the pairs, which vectorizes, instead of an inner loop of
        // trip count 1.
        for (size_t i = 0; i < dim; i += 2) {
            const cplx a0 = amps[i], a1 = amps[i + 1];
            amps[i] = cmul2(u00, a0, u01, a1);
            amps[i + 1] = cmul2(u10, a0, u11, a1);
        }
        return;
    }
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
    const size_t s_min = std::min(s_hi, s_lo);
    const size_t s_max = std::max(s_hi, s_lo);
    const size_t dim = amps_.size();
    cplx *amps = amps_.data();
    // A local copy: stores to the register cannot alias it, so the
    // loops below keep it in registers and vectorize.
    const la::Mat4 m = u;
    // Visit each 4-tuple once from its 00 member: blocks of 2*s_max,
    // runs of 2*s_min inside them, then the contiguous s_min indices
    // with both bits clear.  With s_min == 1 that innermost run is one
    // index long, so the pairs get loops of their own with a constant
    // offset between a tuple's adjacent members.
    if (s_min == 1) {
        for (size_t hi = 0; hi < dim; hi += 2 * s_max) {
            cplx *p = amps + hi;
            if (s_lo == 1)
                for (size_t j = 0; j < s_max; j += 2)
                    mix4(m, p + j, p + j + 1, p + j + s_hi,
                         p + j + s_hi + 1);
            else
                for (size_t j = 0; j < s_max; j += 2)
                    mix4(m, p + j, p + j + s_lo, p + j + 1,
                         p + j + s_lo + 1);
        }
        return;
    }
    for (size_t hi = 0; hi < dim; hi += 2 * s_max) {
        for (size_t mid = hi; mid < hi + s_max; mid += 2 * s_min) {
            cplx *p = amps + mid;
            for (size_t j = 0; j < s_min; ++j)
                mix4(m, p + j, p + j + s_lo, p + j + s_hi,
                     p + j + s_hi + s_lo);
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
