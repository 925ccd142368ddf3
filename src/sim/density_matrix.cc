// The hot-path kernels (apply1Q/apply2Q/applyPhaseVector/
// applyDecoherence/applyDecoherenceAcross) live in
// density_matrix_kernels.cc, built with the vector ISA; this file keeps
// the constructors, the single-qubit channels, RZ and the observables.

#include "sim/density_matrix.h"

#include <cmath>

#include "common/error.h"

namespace qzz::sim {

using la::CMatrix;
using la::cplx;

DensityMatrix::DensityMatrix(int n) : n_(n)
{
    require(n >= 1 && n <= 10, "DensityMatrix: qubit count out of range");
    rho_ = CMatrix(dim(), dim());
    rho_(0, 0) = 1.0;
}

DensityMatrix
DensityMatrix::fromPure(const StateVector &psi)
{
    DensityMatrix dm(psi.numQubits());
    const auto &a = psi.amplitudes();
    for (size_t r = 0; r < a.size(); ++r)
        for (size_t c = 0; c < a.size(); ++c)
            dm.rho_(r, c) = a[r] * std::conj(a[c]);
    return dm;
}

void
DensityMatrix::applyRz(int q, double theta)
{
    require(q >= 0 && q < n_, "applyRz: qubit out of range");
    const size_t mask = size_t(1) << bitPos(q);
    const size_t d = dim();
    const cplx phase = std::exp(cplx{0.0, -theta});
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < d; ++c) {
            const bool rb = r & mask, cb = c & mask;
            if (rb == cb)
                continue;
            rho_(r, c) *= rb ? std::conj(phase) : phase;
        }
}

void
DensityMatrix::applyAmplitudeDamping(int q, double gamma)
{
    require(q >= 0 && q < n_, "applyAmplitudeDamping: qubit out of range");
    require(gamma >= 0.0 && gamma <= 1.0, "applyAmplitudeDamping: gamma");
    const size_t mask = size_t(1) << bitPos(q);
    const size_t d = dim();
    const double keep = std::sqrt(1.0 - gamma);
    for (size_t r = 0; r < d; ++r) {
        for (size_t c = 0; c < d; ++c) {
            const bool rb = r & mask, cb = c & mask;
            if (rb && cb)
                continue; // handled via the 00 partner below
            if (!rb && !cb) {
                rho_(r, c) += gamma * rho_(r | mask, c | mask);
            } else {
                rho_(r, c) *= keep; // one excited index
            }
        }
    }
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < d; ++c)
            if ((r & mask) && (c & mask))
                rho_(r, c) *= 1.0 - gamma;
}

void
DensityMatrix::applyDephasing(int q, double keep)
{
    require(q >= 0 && q < n_, "applyDephasing: qubit out of range");
    require(keep >= 0.0 && keep <= 1.0, "applyDephasing: keep factor");
    const size_t mask = size_t(1) << bitPos(q);
    const size_t d = dim();
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < d; ++c) {
            const bool rb = r & mask, cb = c & mask;
            if (rb != cb)
                rho_(r, c) *= keep;
        }
}

double
DensityMatrix::expectationPure(const StateVector &psi) const
{
    require(psi.numQubits() == n_, "expectationPure: size mismatch");
    const auto &a = psi.amplitudes();
    cplx acc = 0.0;
    for (size_t r = 0; r < a.size(); ++r) {
        cplx row = 0.0;
        for (size_t c = 0; c < a.size(); ++c)
            row += rho_(r, c) * a[c];
        acc += std::conj(a[r]) * row;
    }
    return acc.real();
}

double
DensityMatrix::trace() const
{
    return rho_.trace().real();
}

double
DensityMatrix::probabilityOne(int q) const
{
    require(q >= 0 && q < n_, "probabilityOne: qubit out of range");
    const size_t mask = size_t(1) << bitPos(q);
    double p = 0.0;
    for (size_t k = 0; k < dim(); ++k)
        if (k & mask)
            p += rho_(k, k).real();
    return p;
}

} // namespace qzz::sim
