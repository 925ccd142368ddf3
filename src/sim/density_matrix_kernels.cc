/**
 * @file
 * The density-matrix hot-path kernels, in their own translation unit
 * so the build can hand just these loops the vector ISA
 * (QZZ_VECTOR_KERNELS).  The gates and the Kraus step run on the state
 * vector's index walk (stride_walk.h).  The block kernels of the
 * idle-qubit split (the two-table phase, applyDecoherenceAcross) live
 * here too, built with the same flags as the whole-register sweeps.
 *
 * -ffp-contract=off (src/CMakeLists.txt) does not make a loop's vector
 * body and its scalar path round alike: GCC's vectorizer still emits
 * vfmaddsub for its complex-multiply patterns.  A split block gets the
 * whole register's bits because each entry takes the same code path in
 * both; the split-block tests of kernel_equivalence_test.cc pin that.
 */

#include <cmath>

#include "common/error.h"
#include "sim/density_matrix.h"
#include "sim/stride_walk.h"

namespace qzz::sim {

using la::cplx;

namespace {

/** Mix one 4-tuple (*p00, *p01, *p10, *p11) of the 2Q passes in
 *  place: member i becomes 0 + sum over k ascending of m[i*4+k] times
 *  member k, with the factors in the order @p kRight gives: m first
 *  on the row pass, the member first on the column pass.  Written out,
 *  as the state vector's mix4 is, so the loops that call it vectorize. */
template <bool kRight>
inline void
mix4(const la::Mat4 &m, cplx *p00, cplx *p01, cplx *p10, cplx *p11)
{
    const cplx a0 = *p00, a1 = *p01, a2 = *p10, a3 = *p11;
    const auto mul = [&m](int i, cplx a) {
        return kRight ? cmul(a, m[size_t(i)]) : cmul(m[size_t(i)], a);
    };
    cplx acc0{0.0, 0.0}, acc1{0.0, 0.0}, acc2{0.0, 0.0}, acc3{0.0, 0.0};
    acc0 += mul(0, a0);
    acc0 += mul(1, a1);
    acc0 += mul(2, a2);
    acc0 += mul(3, a3);
    acc1 += mul(4, a0);
    acc1 += mul(5, a1);
    acc1 += mul(6, a2);
    acc1 += mul(7, a3);
    acc2 += mul(8, a0);
    acc2 += mul(9, a1);
    acc2 += mul(10, a2);
    acc2 += mul(11, a3);
    acc3 += mul(12, a0);
    acc3 += mul(13, a1);
    acc3 += mul(14, a2);
    acc3 += mul(15, a3);
    *p00 = acc0;
    *p01 = acc1;
    *p10 = acc2;
    *p11 = acc3;
}

/** One qubit's Kraus step on the 2x2 blocks (b00, b01, b10, b11) of
 *  rho in its row and column bits: damping, then dephasing, each
 *  compiled in or out. */
template <bool kDamp, bool kDeph>
void
decohere(cplx *m, size_t d, size_t s, double g, double kp)
{
    const double sq = std::sqrt(1.0 - g);
    const double om = 1.0 - g;
    forQuads(m, d * d, s * d, s,
             [=](cplx &p00, cplx &p01, cplx &p10, cplx &p11) {
                 cplx b00 = p00, b01 = p01, b10 = p10, b11 = p11;
                 if constexpr (kDamp) {
                     b00 += g * b11;
                     b01 *= sq;
                     b10 *= sq;
                     b11 *= om;
                 }
                 if constexpr (kDeph) {
                     b01 *= kp;
                     b10 *= kp;
                 }
                 p00 = b00;
                 p01 = b01;
                 p10 = b10;
                 p11 = b11;
             });
}

} // namespace

void
DensityMatrix::apply1Q(const la::Mat2 &u, int q)
{
    require(q >= 0 && q < n_, "apply1Q: qubit out of range");
    const size_t s = size_t(1) << bitPos(q);
    const size_t d = dim();
    const cplx u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    const cplx v00 = std::conj(u00), v01 = std::conj(u01);
    const cplx v10 = std::conj(u10), v11 = std::conj(u11);
    cplx *m = rho_.data();
    forPairs(m, d * d, s * d, [=](cplx &p0, cplx &p1) {
        const cplx a0 = p0, a1 = p1;
        p0 = cmul2(u00, a0, u01, a1);
        p1 = cmul2(u10, a0, u11, a1);
    });
    forPairs(m, d * d, s, [=](cplx &p0, cplx &p1) {
        const cplx t0 = p0, t1 = p1;
        p0 = cmul2(t0, v00, t1, v01);
        p1 = cmul2(t0, v10, t1, v11);
    });
}

void
DensityMatrix::apply2Q(const la::Mat4 &u, int q_hi, int q_lo)
{
    require(q_hi >= 0 && q_hi < n_ && q_lo >= 0 && q_lo < n_,
            "apply2Q: qubit out of range");
    require(q_hi != q_lo, "apply2Q: distinct qubits required");
    const size_t s_hi = size_t(1) << bitPos(q_hi);
    const size_t s_lo = size_t(1) << bitPos(q_lo);
    const size_t d = dim();
    la::Mat4 v; // conj(u), indexed (j, k) for the column pass
    for (size_t i = 0; i < 16; ++i)
        v[i] = std::conj(u[i]);
    cplx *m = rho_.data();
    // Both matrices are captured by copy: stores to rho cannot alias
    // them, so the walk keeps them in registers.
    forQuads(m, d * d, s_hi * d, s_lo * d,
             [w = u](cplx &p00, cplx &p01, cplx &p10, cplx &p11) {
                 mix4<false>(w, &p00, &p01, &p10, &p11);
             });
    forQuads(m, d * d, s_hi, s_lo,
             [v](cplx &p00, cplx &p01, cplx &p10, cplx &p11) {
                 mix4<true>(v, &p00, &p01, &p10, &p11);
             });
}

void
DensityMatrix::applyPhaseVector(const la::CVector &p)
{
    applyPhaseVector(p, p);
}

void
DensityMatrix::applyPhaseVector(std::span<const cplx> p_row,
                                std::span<const cplx> p_col)
{
    require(p_row.size() == dim() && p_col.size() == dim(),
            "applyPhaseVector: table size");
    const size_t d = dim();
    cplx *m = rho_.data();
    const cplx *pr = p_row.data();
    const cplx *pc = p_col.data();

    for (size_t r = 0; r < d; ++r) {
        const cplx p = pr[r];
        cplx *row = m + r * d;
        for (size_t c = 0; c < d; ++c)
            row[c] = cmul(row[c], cmul(p, std::conj(pc[c])));
    }
}

void
DensityMatrix::applyDecoherence(const std::vector<double> &gamma,
                                const std::vector<double> &keep)
{
    require(int(gamma.size()) == n_ && int(keep.size()) == n_,
            "applyDecoherence: per-qubit rate vectors must have one "
            "entry per qubit");
    for (int q = 0; q < n_; ++q)
        applyDecoherence(q, gamma[size_t(q)], keep[size_t(q)]);
}

void
DensityMatrix::applyDecoherence(int q, double g, double kp)
{
    require(q >= 0 && q < n_, "applyDecoherence: qubit out of range");
    // Damping and dephasing fused into one pass over rho: each 2x2
    // block over (row pair, column pair) in the qubit's bit is a
    // quadruple of the walk, with the per-entry arithmetic of the
    // sequential channels.
    const size_t s = size_t(1) << bitPos(q);
    cplx *m = rho_.data();
    if (g > 0.0 && kp < 1.0)
        decohere<true, true>(m, dim(), s, g, kp);
    else if (g > 0.0)
        decohere<true, false>(m, dim(), s, g, kp);
    else if (kp < 1.0)
        decohere<false, true>(m, dim(), s, g, kp);
}

void
DensityMatrix::applyDecoherenceAcross(DensityMatrix &lo, DensityMatrix &hi,
                                      bool same_column, double g, double kp)
{
    require(lo.n_ == hi.n_, "applyDecoherenceAcross: block size mismatch");
    const bool damp = g > 0.0;
    const bool deph = kp < 1.0;
    if (!damp && !deph)
        return;
    const double sq = std::sqrt(1.0 - g);
    const double om = 1.0 - g;
    const size_t size = lo.dim() * lo.dim();
    cplx *b0 = lo.rho_.data();
    cplx *b1 = hi.rho_.data();

    // Entry k of the two blocks is the (b00, b11) or (b01, b10) pair of
    // one 2x2 block of applyDecoherence(), updated the same way.  This
    // lives here, not with the split, so the update compiles with the
    // same ISA and the same FMA contraction as the whole-register sweep.
    if (same_column) {
        if (damp)
            for (size_t k = 0; k < size; ++k) {
                b0[k] += g * b1[k];
                b1[k] *= om;
            }
        return;
    }
    for (size_t k = 0; k < size; ++k) {
        cplx b01 = b0[k], b10 = b1[k];
        if (damp) {
            b01 *= sq;
            b10 *= sq;
        }
        if (deph) {
            b01 *= kp;
            b10 *= kp;
        }
        b0[k] = b01;
        b1[k] = b10;
    }
}

} // namespace qzz::sim
