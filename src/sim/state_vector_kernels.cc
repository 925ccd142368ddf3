/**
 * @file
 * The hot-path kernels of both registers, in one translation unit so
 * the build can hand just these loops the vector ISA
 * (QZZ_VECTOR_KERNELS) and the rest of the library keeps baseline
 * codegen.
 *
 * Every kernel runs on one index walk over a flat array.  A density
 * matrix's row-major entries are a state vector of 2n qubits with the
 * row bits high, so U rho U^dag is the state vector's mixer run twice:
 * U at the row strides s * cols, then conj(U) at the column strides s.
 * The whole register and the XOR classes of the layer split take each
 * entry through the same code path, so the split keeps its bits.
 */

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "sim/density_matrix.h"
#include "sim/state_vector.h"

namespace qzz::sim {

using la::cplx;

namespace {

// Finite-input fast path of the std::complex multiply: identical bits
// for the values a register can hold, without the __muldc3
// NaN-recovery branch that blocks auto-vectorization.

/** a * b. */
inline cplx
cmul(cplx a, cplx b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** a * b + c * d without intermediate complex temporaries. */
inline cplx
cmul2(cplx a, cplx b, cplx c, cplx d)
{
    return {a.real() * b.real() - a.imag() * b.imag() +
                c.real() * d.real() - c.imag() * d.imag(),
            a.real() * b.imag() + a.imag() * b.real() +
                c.real() * d.imag() + c.imag() * d.real()};
}

/** Call @p f(m[i], m[i + s]) for every i < @p size whose bit @p s is
 *  clear, in ascending i. */
template <class F>
inline void
forPairs(cplx *m, size_t size, size_t s, F f)
{
    if (s == 1) {
        // Adjacent entries: one loop over the pairs.
        for (size_t i = 0; i < size; i += 2)
            f(m[i], m[i + 1]);
        return;
    }
    for (size_t base = 0; base < size; base += 2 * s) {
        cplx *p = m + base;
        // The pairs are disjoint.  Without ivdep GCC versions the loop
        // on a runtime alias check, costly on the short runs of small
        // strides.  Clang does not know the pragma.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC ivdep
#endif
        for (size_t off = 0; off < s; ++off)
            f(p[off], p[off + s]);
    }
}

/** Call @p f(m00, m01, m10, m11) for every quadruple of entries that
 *  differ only in bits @p s_hi and @p s_lo (distinct), member ab
 *  reading a on s_hi and b on s_lo, in ascending order of the 00
 *  member. */
template <class F>
inline void
forQuads(cplx *m, size_t size, size_t s_hi, size_t s_lo, F f)
{
    const size_t s_min = std::min(s_hi, s_lo);
    const size_t s_max = std::max(s_hi, s_lo);
    // Visit each quadruple from its 00 member: blocks of 2*s_max,
    // runs of 2*s_min inside them, then the contiguous s_min indices
    // with both bits clear.  With s_min == 1 or 2 that innermost run
    // is one or two indices long, so those pairs get loops of their
    // own with a constant offset between a quadruple's adjacent
    // members.
    if (s_min == 1) {
        for (size_t hi = 0; hi < size; hi += 2 * s_max) {
            cplx *p = m + hi;
            if (s_lo == 1)
                for (size_t j = 0; j < s_max; j += 2)
                    f(p[j], p[j + 1], p[j + s_hi], p[j + s_hi + 1]);
            else
                for (size_t j = 0; j < s_max; j += 2)
                    f(p[j], p[j + s_lo], p[j + 1], p[j + s_lo + 1]);
        }
        return;
    }
    if (s_min == 2) {
        for (size_t hi = 0; hi < size; hi += 2 * s_max) {
            cplx *p = m + hi;
            if (s_lo == 2)
                for (size_t j = 0; j < s_max; j += 4) {
                    f(p[j], p[j + 2], p[j + s_hi], p[j + s_hi + 2]);
                    f(p[j + 1], p[j + 3], p[j + s_hi + 1], p[j + s_hi + 3]);
                }
            else
                for (size_t j = 0; j < s_max; j += 4) {
                    f(p[j], p[j + s_lo], p[j + 2], p[j + s_lo + 2]);
                    f(p[j + 1], p[j + s_lo + 1], p[j + 3], p[j + s_lo + 3]);
                }
        }
        return;
    }
    for (size_t hi = 0; hi < size; hi += 2 * s_max) {
        for (size_t mid = hi; mid < hi + s_max; mid += 2 * s_min) {
            cplx *p = m + mid;
            // Disjoint quadruples, as in forPairs.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC ivdep
#endif
            for (size_t j = 0; j < s_min; ++j)
                f(p[j], p[j + s_lo], p[j + s_hi], p[j + s_hi + s_lo]);
        }
    }
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

/** Apply @p u to every pair of entries @p s apart in @p m. */
void
mixPairs(cplx *m, size_t size, size_t s, const la::Mat2 &u)
{
    const cplx u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    forPairs(m, size, s, [=](cplx &p0, cplx &p1) {
        const cplx a0 = p0, a1 = p1;
        p0 = cmul2(u00, a0, u01, a1);
        p1 = cmul2(u10, a0, u11, a1);
    });
}

/** Apply @p u to every quadruple of entries of @p m that differ only
 *  at strides @p s_hi and @p s_lo. */
void
mixQuads(cplx *m, size_t size, size_t s_hi, size_t s_lo, const la::Mat4 &u)
{
    // u is captured by copy: stores to the register cannot alias it,
    // so the walk keeps it in registers and vectorizes.
    forQuads(m, size, s_hi, s_lo,
             [w = u](cplx &p00, cplx &p01, cplx &p10, cplx &p11) {
                 mix4(w, &p00, &p01, &p10, &p11);
             });
}

/** Entrywise complex conjugate of a 2x2 or 4x4. */
template <size_t N>
std::array<cplx, N>
conjugate(std::array<cplx, N> u)
{
    for (cplx &v : u)
        v = std::conj(v);
    return u;
}

/** One qubit's Kraus step on its entries: damping with decay
 *  probability g, then dephasing with retention kp, each compiled in
 *  or out.  A population pair (b00, b11) and each coherence b01, b10
 *  of the qubit transform on their own.  The callers load the entries
 *  into locals first: updated through the walk's references, the
 *  stride-1 loop is left to slower SLP code. */
template <bool kDamp, bool kDeph> struct Kraus
{
    double g, kp;
    double sq = std::sqrt(1.0 - g), om = 1.0 - g;

    void
    populations(cplx &b00, cplx &b11) const
    {
        if constexpr (kDamp) {
            b00 += g * b11;
            b11 *= om;
        }
    }

    void
    coherence(cplx &b) const
    {
        if constexpr (kDamp)
            b *= sq;
        if constexpr (kDeph)
            b *= kp;
    }
};

/** Call @p f with the Kraus step of (g, kp); nothing when g is 0 and
 *  kp is 1. */
template <class F>
void
withKraus(double g, double kp, F f)
{
    if (g > 0.0 && kp < 1.0)
        f(Kraus<true, true>{g, kp});
    else if (g > 0.0)
        f(Kraus<true, false>{g, kp});
    else if (kp < 1.0)
        f(Kraus<false, true>{g, kp});
}

} // namespace

void
StateVector::apply1Q(const la::Mat2 &u, int q)
{
    require(q >= 0 && q < n_, "apply1Q: qubit out of range");
    mixPairs(amps_.data(), amps_.size(), size_t(1) << bitPos(q), u);
}

void
StateVector::apply2Q(const la::Mat4 &u, int q_hi, int q_lo)
{
    require(q_hi >= 0 && q_hi < n_ && q_lo >= 0 && q_lo < n_,
            "apply2Q: qubit out of range");
    require(q_hi != q_lo, "apply2Q: distinct qubits required");
    mixQuads(amps_.data(), amps_.size(), size_t(1) << bitPos(q_hi),
             size_t(1) << bitPos(q_lo), u);
}

void
StateVector::applyPhaseVector(const la::CVector &p)
{
    require(p.size() == amps_.size(),
            "applyPhaseVector: table size mismatch");
    multiplyEntries(amps_, p);
}

void
multiplyEntries(std::span<cplx> m, std::span<const cplx> t)
{
    require(t.size() == m.size(), "multiplyEntries: table size mismatch");
    // Local pointers and extent: the loop reads nothing through a
    // container, so the compiler need not re-read its size or data
    // after each store.
    const size_t size = m.size();
    cplx *e = m.data();
    const cplx *w = t.data();
    for (size_t i = 0; i < size; ++i)
        e[i] = cmul(e[i], w[i]);
}

void
conjugate1Q(std::span<cplx> blocks, size_t cols, const la::Mat2 &u, size_t s)
{
    mixPairs(blocks.data(), blocks.size(), s * cols, u);
    mixPairs(blocks.data(), blocks.size(), s, conjugate(u));
}

void
conjugate2Q(std::span<cplx> blocks, size_t cols, const la::Mat4 &u,
            size_t s_hi, size_t s_lo)
{
    mixQuads(blocks.data(), blocks.size(), s_hi * cols, s_lo * cols, u);
    mixQuads(blocks.data(), blocks.size(), s_hi, s_lo, conjugate(u));
}

void
phaseTable(std::span<cplx> out, size_t cols, std::span<const size_t> rows,
           std::span<const size_t> columns, std::span<const cplx> p)
{
    require(out.size() == rows.size() * cols &&
                columns.size() == rows.size(),
            "phaseTable: table size");
    for (size_t r = 0; r < rows.size(); ++r) {
        const cplx p_r = p[rows[r]];
        const std::span<const size_t> cs = columns.subspan(r / cols * cols,
                                                           cols);
        const std::span<cplx> row = out.subspan(r * cols, cols);
        for (size_t c = 0; c < cols; ++c)
            row[c] = cmul(p_r, std::conj(p[cs[c]]));
    }
}

void
scaleTable(std::span<cplx> out, size_t cols, std::span<const size_t> rows,
           std::span<const size_t> columns, const std::vector<double> &gamma,
           const std::vector<double> &keep)
{
    constexpr size_t kMaxQubits = 16;
    const size_t n = gamma.size();
    require(out.size() == rows.size() * cols &&
                columns.size() == rows.size(),
            "scaleTable: table size");
    require(keep.size() == n && n <= kMaxQubits,
            "scaleTable: one factor pair per qubit");
    // f[q][2 * r_q + c_q]: qubit q's damping and dephasing factors on
    // an entry whose row reads r_q and whose column reads c_q there,
    // multiplied in one after the other as decohere() applies them.
    using Factors = std::array<double, 2>;
    std::array<std::array<Factors, 4>, kMaxQubits> f;
    for (size_t q = 0; q < n; ++q) {
        const Factors coherence = {std::sqrt(1.0 - gamma[q]), keep[q]};
        f[q] = {Factors{1.0, 1.0}, coherence, coherence,
                Factors{1.0 - gamma[q], 1.0}};
    }
    for (size_t r = 0; r < rows.size(); ++r) {
        const size_t row_bits = rows[r];
        const std::span<const size_t> cs = columns.subspan(r / cols * cols,
                                                           cols);
        const std::span<cplx> row = out.subspan(r * cols, cols);
        for (size_t c = 0; c < cols; ++c) {
            double s = 1.0;
            for (size_t q = 0; q < n; ++q) {
                const size_t bit = n - 1 - q;
                const auto [damp, dephase] =
                    f[q][((row_bits >> bit) & 1) * 2 + ((cs[c] >> bit) & 1)];
                s *= damp;
                s *= dephase;
            }
            row[c] = {s, 0.0};
        }
    }
}

void
decohere(std::span<cplx> blocks, size_t cols, size_t s, double g, double kp)
{
    // Each 2x2 block over (row pair, column pair) in the qubit's bit is
    // a quadruple of the walk: both channels in one pass.
    withKraus(g, kp, [&](auto k) {
        forQuads(blocks.data(), blocks.size(), s * cols, s,
                 [k](cplx &p00, cplx &p01, cplx &p10, cplx &p11) {
                     cplx b00 = p00, b01 = p01, b10 = p10, b11 = p11;
                     k.populations(b00, b11);
                     k.coherence(b01);
                     k.coherence(b10);
                     p00 = b00;
                     p01 = b01;
                     p10 = b10;
                     p11 = b11;
                 });
    });
}

void
transferPopulation(std::span<cplx> blocks, size_t cols, size_t s, double g)
{
    if (g == 0.0)
        return;
    // The (row pair, column pair) quadruple of decohere(), of which
    // only the populations b00 and b11 take part.
    forQuads(blocks.data(), blocks.size(), s * cols, s,
             [g](cplx &p00, cplx &, cplx &, cplx &p11) { p00 += g * p11; });
}

void
transferPopulationAcross(std::span<cplx> blocks, size_t stride, double g)
{
    if (g == 0.0)
        return;
    forPairs(blocks.data(), blocks.size(), stride,
             [g](cplx &p00, cplx &p11) { p00 += g * p11; });
}

} // namespace qzz::sim
