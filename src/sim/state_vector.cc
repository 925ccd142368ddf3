// The hot-path kernels (apply1Q(Mat2)/apply2Q(Mat4)/
// applyPhaseVector) live in state_vector_kernels.cc, the only
// translation unit the build compiles with the vector ISA; this
// file keeps the constructor, the CMatrix gate overloads, RZ and the
// observables at baseline codegen.

#include "sim/state_vector.h"

#include <cmath>

#include "common/error.h"

namespace qzz::sim {

using la::cplx;

StateVector::StateVector(int n) : n_(n)
{
    require(n >= 1 && n <= 20, "StateVector: qubit count out of range");
    amps_.assign(size_t(1) << n, cplx{0.0, 0.0});
    amps_[0] = 1.0;
}

void
StateVector::apply1Q(const la::CMatrix &u, int q)
{
    require(u.rows() == 2 && u.cols() == 2, "apply1Q: need a 2x2 matrix");
    require(q >= 0 && q < n_, "apply1Q: qubit out of range");
    const size_t stride = size_t(1) << bitPos(q);
    const cplx u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
    const size_t dim = amps_.size();
    for (size_t base = 0; base < dim; base += 2 * stride) {
        for (size_t off = 0; off < stride; ++off) {
            const size_t i0 = base + off;
            const size_t i1 = i0 + stride;
            const cplx a0 = amps_[i0], a1 = amps_[i1];
            amps_[i0] = u00 * a0 + u01 * a1;
            amps_[i1] = u10 * a0 + u11 * a1;
        }
    }
}

void
StateVector::apply2Q(const la::CMatrix &u, int q_hi, int q_lo)
{
    require(u.rows() == 4 && u.cols() == 4, "apply2Q: need a 4x4 matrix");
    require(q_hi >= 0 && q_hi < n_ && q_lo >= 0 && q_lo < n_,
            "apply2Q: qubit out of range");
    require(q_hi != q_lo, "apply2Q: distinct qubits required");
    const size_t s_hi = size_t(1) << bitPos(q_hi);
    const size_t s_lo = size_t(1) << bitPos(q_lo);
    const size_t dim = amps_.size();
    for (size_t k = 0; k < dim; ++k) {
        if ((k & s_hi) || (k & s_lo))
            continue; // enumerate each 4-tuple once from its 00 member
        const size_t i00 = k;
        const size_t i01 = k | s_lo;
        const size_t i10 = k | s_hi;
        const size_t i11 = k | s_hi | s_lo;
        const cplx a00 = amps_[i00], a01 = amps_[i01];
        const cplx a10 = amps_[i10], a11 = amps_[i11];
        amps_[i00] =
            u(0, 0) * a00 + u(0, 1) * a01 + u(0, 2) * a10 + u(0, 3) * a11;
        amps_[i01] =
            u(1, 0) * a00 + u(1, 1) * a01 + u(1, 2) * a10 + u(1, 3) * a11;
        amps_[i10] =
            u(2, 0) * a00 + u(2, 1) * a01 + u(2, 2) * a10 + u(2, 3) * a11;
        amps_[i11] =
            u(3, 0) * a00 + u(3, 1) * a01 + u(3, 2) * a10 + u(3, 3) * a11;
    }
}

void
StateVector::applyRz(int q, double theta)
{
    require(q >= 0 && q < n_, "applyRz: qubit out of range");
    const size_t mask = size_t(1) << bitPos(q);
    const cplx p0 = std::exp(cplx{0.0, -theta / 2.0});
    const cplx p1 = std::exp(cplx{0.0, theta / 2.0});
    for (size_t k = 0; k < amps_.size(); ++k)
        amps_[k] *= (k & mask) ? p1 : p0;
}

double
StateVector::probabilityOne(int q) const
{
    require(q >= 0 && q < n_, "probabilityOne: qubit out of range");
    const size_t mask = size_t(1) << bitPos(q);
    double p = 0.0;
    for (size_t k = 0; k < amps_.size(); ++k)
        if (k & mask)
            p += std::norm(amps_[k]);
    return p;
}

cplx
StateVector::overlap(const StateVector &other) const
{
    require(other.n_ == n_, "overlap: size mismatch");
    return la::dot(amps_, other.amps_);
}

double
StateVector::fidelity(const StateVector &other) const
{
    return std::norm(overlap(other));
}

double
StateVector::norm() const
{
    return la::norm(amps_);
}

std::vector<double>
zzEnergyTable(int n, const std::vector<std::array<int, 2>> &edges,
              const std::vector<double> &lambdas)
{
    require(edges.size() == lambdas.size(),
            "zzEnergyTable: edge/lambda count mismatch");
    std::vector<double> table(size_t(1) << n, 0.0);
    for (size_t k = 0; k < table.size(); ++k) {
        double e = 0.0;
        for (size_t i = 0; i < edges.size(); ++i) {
            const int zu =
                ((k >> (n - 1 - edges[i][0])) & 1) ? -1 : 1;
            const int zv =
                ((k >> (n - 1 - edges[i][1])) & 1) ? -1 : 1;
            e += lambdas[i] * double(zu * zv);
        }
        table[k] = e;
    }
    return table;
}

} // namespace qzz::sim
