// The hot-path members run the block kernels of
// state_vector_kernels.cc on the whole matrix as one block.

#include "sim/density_matrix.h"

#include <cmath>
#include <numeric>

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
DensityMatrix::apply1Q(const la::Mat2 &u, int q)
{
    require(q >= 0 && q < n_, "apply1Q: qubit out of range");
    conjugate1Q(entries(), dim(), u, stride(q));
}

void
DensityMatrix::apply2Q(const la::Mat4 &u, int q_hi, int q_lo)
{
    require(q_hi >= 0 && q_hi < n_ && q_lo >= 0 && q_lo < n_,
            "apply2Q: qubit out of range");
    require(q_hi != q_lo, "apply2Q: distinct qubits required");
    conjugate2Q(entries(), dim(), u, stride(q_hi), stride(q_lo));
}

void
DensityMatrix::applyPhaseVector(const la::CVector &p)
{
    require(p.size() == dim(), "applyPhaseVector: table size mismatch");
    std::vector<size_t> identity(dim());
    std::iota(identity.begin(), identity.end(), size_t(0));
    std::vector<cplx> table(dim() * dim());
    phaseTable(table, dim(), identity, identity, p);
    multiplyEntries(entries(), table);
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
DensityMatrix::applyDecoherence(int q, double gamma, double keep)
{
    require(q >= 0 && q < n_, "applyDecoherence: qubit out of range");
    decohere(entries(), dim(), stride(q), gamma, keep);
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
    decohere(entries(), dim(), stride(q), gamma, 1.0);
}

void
DensityMatrix::applyDephasing(int q, double keep)
{
    require(q >= 0 && q < n_, "applyDephasing: qubit out of range");
    require(keep >= 0.0 && keep <= 1.0, "applyDephasing: keep factor");
    decohere(entries(), dim(), stride(q), 0.0, keep);
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
