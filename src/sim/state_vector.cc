// The hot-path kernels (apply1Q/apply2Q/applyPhaseVector) live in
// state_vector_kernels.cc, the only translation unit the build
// compiles with the vector ISA; this file keeps the constructor, RZ
// and the observables at baseline codegen.

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
