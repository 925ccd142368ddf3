#include "sim/drive_step.h"

#include "common/error.h"
#include "linalg/expm.h"

namespace qzz::sim {

using la::cplx;
using pulse::PulseGate;
using pulse::PulseProgram;

PulseGate
pulseGateOf(const ckt::Gate &g)
{
    switch (g.kind) {
    case ckt::GateKind::SX:
        return PulseGate::SX;
    case ckt::GateKind::I:
        return PulseGate::Identity;
    case ckt::GateKind::RZX:
        return PulseGate::RZX;
    default:
        fatal("pulse simulator: gate has no pulses: " + g.toString());
    }
}

int
pulseKindIndex(PulseGate k)
{
    return k == PulseGate::SX ? 0 : (k == PulseGate::Identity ? 1 : 2);
}

void
drive1QStep(const PulseProgram &p, double t_mid, double dt, la::Mat2 &out)
{
    const double ox = PulseProgram::eval(p.x_a, t_mid);
    const double oy = PulseProgram::eval(p.y_a, t_mid);
    la::expPauli(ox * dt, oy * dt, 0.0, out);
}

void
drive2QStep(const PulseProgram &p, double t_mid, double dt, la::Mat4 &out)
{
    const double oxa = PulseProgram::eval(p.x_a, t_mid);
    const double oya = PulseProgram::eval(p.y_a, t_mid);
    const double oxb = PulseProgram::eval(p.x_b, t_mid);
    const double oyb = PulseProgram::eval(p.y_b, t_mid);
    const double oc = PulseProgram::eval(p.coupling, t_mid);
    la::Mat4 h{};
    const cplx da{oxa, -oya};
    h[0 * 4 + 2] += da;
    h[1 * 4 + 3] += da;
    h[2 * 4 + 0] += std::conj(da);
    h[3 * 4 + 1] += std::conj(da);
    const cplx db{oxb, -oyb};
    h[0 * 4 + 1] += db;
    h[2 * 4 + 3] += db;
    h[1 * 4 + 0] += std::conj(db);
    h[3 * 4 + 2] += std::conj(db);
    h[0 * 4 + 1] += oc;
    h[1 * 4 + 0] += oc;
    h[2 * 4 + 3] += -oc;
    h[3 * 4 + 2] += -oc;
    la::expmPropagator4(h, dt, out);
}

} // namespace qzz::sim
