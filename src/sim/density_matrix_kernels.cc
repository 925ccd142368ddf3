/**
 * @file
 * The fused density-matrix hot-path kernels, in their own
 * translation unit so the build can hand just these loops the vector ISA
 * (QZZ_VECTOR_KERNELS): only the per-step sweeps of the Strang
 * integrator gain from it, and the rest of the library keeps baseline
 * codegen.  The block kernels of the idle-qubit split (the two-table
 * phase, applyDecoherenceAcross) live here too: they must round
 * exactly like the whole-register sweeps.  Every kernel is one
 * sequential loop, and the file is built without FMA contraction, so
 * a loop's vectorized body and its scalar path round alike: a split
 * block, whose strides differ from the whole register's, gets the
 * same bits whichever path the compiler gives each entry.
 */

#include <cmath>

#include "common/error.h"
#include "sim/density_matrix.h"

namespace qzz::sim {

using la::cplx;

namespace {

// --- fused-kernel helpers --------------------------------------------
//
// The kernels below avoid std::complex operator* on purpose: libstdc++
// lowers it through _Complex multiplication, whose NaN-recovery branch
// (__muldc3) blocks auto-vectorization.  cmul() is the finite-input
// fast path of that multiply — identical bits for the values a density
// matrix can hold — written so the compiler can keep everything in
// vector registers.

inline cplx
cmul(cplx a, cplx b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** a * b + c * d, the row/column mixing primitive of the kernels. */
inline cplx
cmul2(cplx a, cplx b, cplx c, cplx d)
{
    return {a.real() * b.real() - a.imag() * b.imag() +
                c.real() * d.real() - c.imag() * d.imag(),
            a.real() * b.imag() + a.imag() * b.real() +
                c.real() * d.imag() + c.imag() * d.real()};
}

/** Insert a zero bit at the position of one-bit @p mask: maps a
 *  compact index onto the sub-lattice with that bit clear. */
inline size_t
expandBit(size_t j, size_t mask)
{
    return ((j & ~(mask - 1)) << 1) | (j & (mask - 1));
}

} // namespace

void
DensityMatrix::apply1Q(const la::Mat2 &u, int q)
{
    require(q >= 0 && q < n_, "apply1Q: qubit out of range");
    const size_t stride = size_t(1) << bitPos(q);
    const size_t d = dim();
    const cplx u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    const cplx v00 = std::conj(u00), v01 = std::conj(u01);
    const cplx v10 = std::conj(u10), v11 = std::conj(u11);
    cplx *m = rho_.data();

    // U rho U^dag splits into independent 2x2 blocks over (row pair,
    // column pair); each block is transformed in registers in one
    // visit: left factor first (rows mix), then the right factor
    // (columns mix) — the same arithmetic as a left pass followed by
    // a right pass, in the same order, with half the memory traffic.
    for (size_t j = 0; j < d / 2; ++j) {
        const size_t r0 = expandBit(j, stride);
        cplx *row0 = m + r0 * d;
        cplx *row1 = row0 + stride * d;
        for (size_t base = 0; base < d; base += 2 * stride) {
            for (size_t off = 0; off < stride; ++off) {
                const size_t c0 = base + off, c1 = c0 + stride;
                const cplx a00 = row0[c0], a01 = row0[c1];
                const cplx a10 = row1[c0], a11 = row1[c1];
                const cplx t00 = cmul2(u00, a00, u01, a10);
                const cplx t01 = cmul2(u00, a01, u01, a11);
                const cplx t10 = cmul2(u10, a00, u11, a10);
                const cplx t11 = cmul2(u10, a01, u11, a11);
                row0[c0] = cmul2(t00, v00, t01, v01);
                row0[c1] = cmul2(t00, v10, t01, v11);
                row1[c0] = cmul2(t10, v00, t11, v01);
                row1[c1] = cmul2(t10, v10, t11, v11);
            }
        }
    }
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
    const size_t s_min = std::min(s_hi, s_lo);
    const size_t s_max = std::max(s_hi, s_lo);
    cplx v[16]; // conj(u), indexed (j, k) for the right factor
    for (int i = 0; i < 16; ++i)
        v[i] = std::conj(u[size_t(i)]);
    cplx *mm = rho_.data();

    // 4x4 blocks over (row quad, column quad), transformed in
    // registers in one visit, accumulating k-ascending.
    for (size_t jr = 0; jr < d / 4; ++jr) {
        const size_t kr =
            expandBit(expandBit(jr, s_min), s_max);
        cplx *rows[4];
        for (int i = 0; i < 4; ++i) {
            const size_t r = kr | ((i & 2) ? s_hi : 0) |
                             ((i & 1) ? s_lo : 0);
            rows[i] = mm + r * d;
        }
        for (size_t jc = 0; jc < d / 4; ++jc) {
            const size_t kc =
                expandBit(expandBit(jc, s_min), s_max);
            size_t cols[4];
            for (int jj = 0; jj < 4; ++jj)
                cols[jj] = kc | ((jj & 2) ? s_hi : 0) |
                           ((jj & 1) ? s_lo : 0);
            cplx a[4][4], t[4][4];
            for (int i = 0; i < 4; ++i)
                for (int jj = 0; jj < 4; ++jj)
                    a[i][jj] = rows[i][cols[jj]];
            for (int i = 0; i < 4; ++i)
                for (int jj = 0; jj < 4; ++jj) {
                    cplx acc{0.0, 0.0};
                    for (int k = 0; k < 4; ++k)
                        acc += cmul(u[size_t(i * 4 + k)], a[k][jj]);
                    t[i][jj] = acc;
                }
            for (int i = 0; i < 4; ++i)
                for (int jj = 0; jj < 4; ++jj) {
                    cplx acc{0.0, 0.0};
                    for (int k = 0; k < 4; ++k)
                        acc += cmul(t[i][k], v[jj * 4 + k]);
                    rows[i][cols[jj]] = acc;
                }
        }
    }
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
    const bool damp = g > 0.0;
    const bool deph = kp < 1.0;
    if (!damp && !deph)
        return;
    const double sq = std::sqrt(1.0 - g);
    const double om = 1.0 - g;
    const size_t stride = size_t(1) << bitPos(q);
    const size_t d = dim();
    cplx *m = rho_.data();

    // One sweep fuses the amplitude-damping update
    // (applyAmplitudeDamping's two passes) with the dephasing scale:
    // each 2x2 block over (row pair, column pair) in the qubit's bit
    // is independent, with the same per-element arithmetic as the
    // sequential channels.
    for (size_t j = 0; j < d / 2; ++j) {
        const size_t r0 = expandBit(j, stride);
        cplx *row0 = m + r0 * d;
        cplx *row1 = row0 + stride * d;
        for (size_t base = 0; base < d; base += 2 * stride) {
            for (size_t off = 0; off < stride; ++off) {
                const size_t c0 = base + off;
                const size_t c1 = c0 + stride;
                cplx b00 = row0[c0], b01 = row0[c1];
                cplx b10 = row1[c0], b11 = row1[c1];
                if (damp) {
                    b00 += g * b11;
                    b01 *= sq;
                    b10 *= sq;
                    b11 *= om;
                }
                if (deph) {
                    b01 *= kp;
                    b10 *= kp;
                }
                row0[c0] = b00;
                row0[c1] = b01;
                row1[c0] = b10;
                row1[c1] = b11;
            }
        }
    }
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
