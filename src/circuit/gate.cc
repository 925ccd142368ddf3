#include "circuit/gate.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/units.h"
#include "linalg/expm.h"

namespace qzz::ckt {

using la::CMatrix;
using la::cplx;
using la::kI;

bool
Gate::isNative() const
{
    switch (kind) {
    case GateKind::SX:
    case GateKind::I:
    case GateKind::RZ:
        return true;
    case GateKind::RZX:
        return params.size() == 1 &&
               std::abs(params[0] - kPi / 2.0) < 1e-12;
    default:
        return false;
    }
}

std::string
Gate::toString() const
{
    std::ostringstream ss;
    ss << gateKindName(kind);
    if (!params.empty()) {
        ss << "(";
        for (size_t i = 0; i < params.size(); ++i)
            ss << (i ? "," : "") << params[i];
        ss << ")";
    }
    ss << "[";
    for (size_t i = 0; i < qubits.size(); ++i)
        ss << (i ? "," : "") << qubits[i];
    ss << "]";
    return ss.str();
}

std::string
gateKindName(GateKind k)
{
    switch (k) {
    case GateKind::SX:
        return "SX";
    case GateKind::I:
        return "I";
    case GateKind::RZX:
        return "RZX";
    case GateKind::RZ:
        return "RZ";
    case GateKind::X:
        return "X";
    case GateKind::Y:
        return "Y";
    case GateKind::Z:
        return "Z";
    case GateKind::H:
        return "H";
    case GateKind::S:
        return "S";
    case GateKind::SDG:
        return "SDG";
    case GateKind::T:
        return "T";
    case GateKind::TDG:
        return "TDG";
    case GateKind::RX:
        return "RX";
    case GateKind::RY:
        return "RY";
    case GateKind::U3:
        return "U3";
    case GateKind::CX:
        return "CX";
    case GateKind::CZ:
        return "CZ";
    case GateKind::CP:
        return "CP";
    case GateKind::RZZ:
        return "RZZ";
    case GateKind::SWAP:
        return "SWAP";
    }
    return "?";
}

int
gateArity(GateKind k)
{
    switch (k) {
    case GateKind::RZX:
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::RZZ:
    case GateKind::SWAP:
        return 2;
    default:
        return 1;
    }
}

namespace {

CMatrix
rz(double theta)
{
    return CMatrix{{std::exp(-kI * theta / 2.0), 0.0},
                   {0.0, std::exp(kI * theta / 2.0)}};
}

CMatrix
rx(double theta)
{
    const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
    return CMatrix{{c, -kI * s}, {-kI * s, c}};
}

CMatrix
ry(double theta)
{
    const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
    return CMatrix{{c, -s}, {s, c}};
}

CMatrix
u3(double theta, double phi, double lambda)
{
    // Standard OpenQASM U3 definition.
    const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
    return CMatrix{
        {c, -std::exp(kI * lambda) * s},
        {std::exp(kI * phi) * s, std::exp(kI * (phi + lambda)) * c}};
}

} // namespace

CMatrix
gateMatrix(const Gate &g)
{
    auto p = [&](size_t i) {
        if (i >= g.params.size())
            fatal("gateMatrix: missing parameter for " + g.toString());
        return g.params[i];
    };
    switch (g.kind) {
    case GateKind::SX:
        return rx(kPi / 2.0);
    case GateKind::I:
        return CMatrix::identity(2);
    case GateKind::RZ:
        return rz(p(0));
    case GateKind::X:
        return la::pauliX();
    case GateKind::Y:
        return la::pauliY();
    case GateKind::Z:
        return la::pauliZ();
    case GateKind::H: {
        const double r = 1.0 / std::sqrt(2.0);
        return CMatrix{{r, r}, {r, -r}};
    }
    case GateKind::S:
        return CMatrix{{1.0, 0.0}, {0.0, kI}};
    case GateKind::SDG:
        return CMatrix{{1.0, 0.0}, {0.0, -kI}};
    case GateKind::T:
        return CMatrix{{1.0, 0.0}, {0.0, std::exp(kI * kPi / 4.0)}};
    case GateKind::TDG:
        return CMatrix{{1.0, 0.0}, {0.0, std::exp(-kI * kPi / 4.0)}};
    case GateKind::RX:
        return rx(p(0));
    case GateKind::RY:
        return ry(p(0));
    case GateKind::U3:
        return u3(p(0), p(1), p(2));
    case GateKind::RZX:
        // exp(-i theta/2 Z (x) X), first qubit = Z factor.
        return la::expInvolutory(kron(la::pauliZ(), la::pauliX()),
                                 p(0) / 2.0);
    case GateKind::CX:
        return CMatrix{{1, 0, 0, 0},
                       {0, 1, 0, 0},
                       {0, 0, 0, 1},
                       {0, 0, 1, 0}};
    case GateKind::CZ:
        return CMatrix{{1, 0, 0, 0},
                       {0, 1, 0, 0},
                       {0, 0, 1, 0},
                       {0, 0, 0, -1}};
    case GateKind::CP: {
        CMatrix m = CMatrix::identity(4);
        m(3, 3) = std::exp(kI * p(0));
        return m;
    }
    case GateKind::RZZ:
        return la::expInvolutory(kron(la::pauliZ(), la::pauliZ()),
                                 p(0) / 2.0);
    case GateKind::SWAP:
        return CMatrix{{1, 0, 0, 0},
                       {0, 0, 1, 0},
                       {0, 1, 0, 0},
                       {0, 0, 0, 1}};
    }
    panic("gateMatrix: unhandled gate kind");
}

} // namespace qzz::ckt
