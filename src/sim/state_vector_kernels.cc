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
#include "sim/stride_walk.h"

namespace qzz::sim {

using la::cplx;

namespace {

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
    const cplx u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    forPairs(amps_.data(), amps_.size(), size_t(1) << bitPos(q),
             [=](cplx &p0, cplx &p1) {
                 const cplx a0 = p0, a1 = p1;
                 p0 = cmul2(u00, a0, u01, a1);
                 p1 = cmul2(u10, a0, u11, a1);
             });
}

void
StateVector::apply2Q(const la::Mat4 &u, int q_hi, int q_lo)
{
    require(q_hi >= 0 && q_hi < n_ && q_lo >= 0 && q_lo < n_,
            "apply2Q: qubit out of range");
    require(q_hi != q_lo, "apply2Q: distinct qubits required");
    // u is captured by copy: stores to the register cannot alias it,
    // so the walk keeps it in registers and vectorizes.
    forQuads(amps_.data(), amps_.size(), size_t(1) << bitPos(q_hi),
             size_t(1) << bitPos(q_lo),
             [m = u](cplx &p00, cplx &p01, cplx &p10, cplx &p11) {
                 mix4(m, &p00, &p01, &p10, &p11);
             });
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
