/**
 * @file
 * The index walk of the register kernels, and the complex arithmetic of
 * their mixers.  The walk visits each pair or quadruple of entries that
 * a one- or two-qubit operation mixes once, in a flat array.  A density
 * matrix is walked as a vector of 2n qubits: a qubit at stride s is the
 * row bit at stride s * d and the column bit at stride s, so U rho U^dag
 * is a row pass of U and then a column pass of conj(U).  Each kernel
 * translation unit compiles the walk and its own copy of cmul/cmul2
 * under its own flags (vector ISA, FMA contraction).
 */

#ifndef QZZ_SIM_STRIDE_WALK_H
#define QZZ_SIM_STRIDE_WALK_H

#include <algorithm>
#include <cstddef>

#include "linalg/matrix.h"

namespace qzz::sim {

// Finite-input fast path of the std::complex multiply: identical bits
// for the values a register can hold, without the __muldc3
// NaN-recovery branch that blocks auto-vectorization.

/** a * b. */
static inline la::cplx
cmul(la::cplx a, la::cplx b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** a * b + c * d without intermediate complex temporaries. */
static inline la::cplx
cmul2(la::cplx a, la::cplx b, la::cplx c, la::cplx d)
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
forPairs(la::cplx *m, size_t size, size_t s, F f)
{
    if (s == 1) {
        // Adjacent entries: one loop over the pairs.
        for (size_t i = 0; i < size; i += 2)
            f(m[i], m[i + 1]);
        return;
    }
    for (size_t base = 0; base < size; base += 2 * s) {
        la::cplx *p = m + base;
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
forQuads(la::cplx *m, size_t size, size_t s_hi, size_t s_lo, F f)
{
    const size_t s_min = std::min(s_hi, s_lo);
    const size_t s_max = std::max(s_hi, s_lo);
    // Visit each quadruple from its 00 member: blocks of 2*s_max,
    // runs of 2*s_min inside them, then the contiguous s_min indices
    // with both bits clear.  With s_min == 1 that innermost run is one
    // index long, so the pairs get loops of their own with a constant
    // offset between a quadruple's adjacent members.
    if (s_min == 1) {
        for (size_t hi = 0; hi < size; hi += 2 * s_max) {
            la::cplx *p = m + hi;
            if (s_lo == 1)
                for (size_t j = 0; j < s_max; j += 2)
                    f(p[j], p[j + 1], p[j + s_hi], p[j + s_hi + 1]);
            else
                for (size_t j = 0; j < s_max; j += 2)
                    f(p[j], p[j + s_lo], p[j + 1], p[j + s_lo + 1]);
        }
        return;
    }
    for (size_t hi = 0; hi < size; hi += 2 * s_max) {
        for (size_t mid = hi; mid < hi + s_max; mid += 2 * s_min) {
            la::cplx *p = m + mid;
            // Disjoint quadruples, as in forPairs.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC ivdep
#endif
            for (size_t j = 0; j < s_min; ++j)
                f(p[j], p[j + s_lo], p[j + s_hi], p[j + s_hi + s_lo]);
        }
    }
}

} // namespace qzz::sim

#endif // QZZ_SIM_STRIDE_WALK_H
