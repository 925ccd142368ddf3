#include "dense_oracle.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "linalg/expm.h"

namespace qzz::sim::oracle {

using la::CMatrix;
using la::cplx;

Dense
column(const la::CVector &amps)
{
    Dense psi(amps.size(), 1);
    for (size_t k = 0; k < amps.size(); ++k)
        psi(k, 0) = amps[k];
    return psi;
}

void
apply(const CMatrix &u, Dense &state)
{
    if (state.cols() == 1) {
        state = u * state;
        return;
    }
    // U rho U^dag = (U (U rho)^dag)^dag: every product has the
    // embedded operator on the left, where CMatrix's product skips
    // its zeros.
    state = (u * (u * state).dagger()).dagger();
}

void
applyKraus(const std::vector<CMatrix> &kraus, Dense &rho)
{
    Dense out(rho.rows(), rho.cols());
    for (const CMatrix &k : kraus) {
        Dense term = rho;
        apply(k, term);
        out += term;
    }
    rho = out;
}

std::vector<CMatrix>
amplitudeDamping(int q, int n, double gamma)
{
    const CMatrix k0{{1.0, 0.0}, {0.0, std::sqrt(1.0 - gamma)}};
    const CMatrix k1{{0.0, std::sqrt(gamma)}, {0.0, 0.0}};
    return {la::embed(k0, {q}, n), la::embed(k1, {q}, n)};
}

std::vector<CMatrix>
dephasing(int q, int n, double keep)
{
    // p rho + (1 - p) Z rho Z scales the coherences by 2p - 1 = keep.
    const double p = (1.0 + keep) / 2.0;
    return {la::embed(std::sqrt(p) * la::identity2(), {q}, n),
            la::embed(std::sqrt(1.0 - p) * la::pauliZ(), {q}, n)};
}

CMatrix
diagonalPhase(const std::vector<double> &energies, double dt)
{
    la::CVector d(energies.size());
    for (size_t k = 0; k < d.size(); ++k)
        d[k] = std::exp(cplx{0.0, -energies[k] * dt});
    return CMatrix::diag(d);
}

CMatrix
driveStep(const pulse::PulseProgram &p, double t_mid, double dt)
{
    using pulse::PulseProgram;
    const auto at = [&](const pulse::WaveformPtr &w) {
        return PulseProgram::eval(w, t_mid);
    };
    const CMatrix &x = la::pauliX(), &y = la::pauliY();
    const CMatrix &z = la::pauliZ(), &i2 = la::identity2();
    if (!p.two_qubit)
        return la::expmPropagator(at(p.x_a) * x + at(p.y_a) * y, dt);
    // Drives on both qubits (a = the high bit) plus the Z_a X_b
    // cross-resonance coupling.
    const CMatrix h = at(p.x_a) * la::kron(x, i2) +
                      at(p.y_a) * la::kron(y, i2) +
                      at(p.x_b) * la::kron(i2, x) +
                      at(p.y_b) * la::kron(i2, y) +
                      at(p.coupling) * la::kron(z, x);
    return la::expmPropagator(h, dt);
}

std::vector<double>
zzEnergies(const dev::Device &device)
{
    const int n = device.numQubits();
    std::vector<double> e(size_t(1) << n, 0.0);
    const auto z = [&](size_t k, int q) {
        return ((k >> (n - 1 - q)) & 1) ? -1.0 : 1.0; // qubit 0 = MSB
    };
    for (const graph::Edge &edge : device.graph().edges())
        for (size_t k = 0; k < e.size(); ++k)
            e[k] += device.coupling(edge.id) * z(k, edge.u) * z(k, edge.v);
    return e;
}

namespace {

pulse::PulseGate
pulseKind(const ckt::Gate &g)
{
    switch (g.kind) {
    case ckt::GateKind::SX:
        return pulse::PulseGate::SX;
    case ckt::GateKind::I:
        return pulse::PulseGate::Identity;
    case ckt::GateKind::RZX:
        return pulse::PulseGate::RZX;
    default:
        fatal("dense oracle: gate has no pulses: " + g.toString());
    }
}

/** The T1/T2 Kraus operators of every lossy qubit over one step. */
std::vector<std::vector<CMatrix>>
decoherenceKraus(const dev::Device &device, double dt)
{
    const int n = device.numQubits();
    std::vector<std::vector<CMatrix>> channels;
    for (int q = 0; q < n; ++q) {
        const double t1 = device.t1(q), t2 = device.t2(q);
        if (std::isfinite(t1))
            channels.push_back(
                amplitudeDamping(q, n, 1.0 - std::exp(-dt / t1)));
        if (std::isfinite(t2)) {
            // 1/T_phi = 1/T2 - 1/(2 T1).
            const double rate = std::max(
                0.0, 1.0 / t2 - (std::isfinite(t1) ? 0.5 / t1 : 0.0));
            channels.push_back(dephasing(q, n, std::exp(-dt * rate)));
        }
    }
    return channels;
}

} // namespace

void
runSchedule(const core::Schedule &schedule, const dev::Device &device,
            const pulse::PulseLibrary &library, double dt_opt,
            bool decoherence, Dense &state)
{
    const int n = device.numQubits();
    const std::vector<double> energies = zzEnergies(device);
    for (const core::Layer &layer : schedule.layers) {
        if (layer.is_virtual) {
            for (const core::ScheduledGate &sg : layer.gates) {
                const double theta = sg.gate.params[0];
                const CMatrix rz{{std::exp(cplx{0.0, -theta / 2.0}), 0.0},
                                 {0.0, std::exp(cplx{0.0, theta / 2.0})}};
                apply(la::embed(rz, {sg.gate.qubits[0]}, n), state);
            }
            continue;
        }
        if (layer.duration <= 0.0)
            continue;
        const size_t steps = std::max<size_t>(
            1, size_t(std::ceil(layer.duration / dt_opt)));
        const double dt = layer.duration / double(steps);
        const CMatrix zz_half = diagonalPhase(energies, dt / 2.0);
        const auto kraus = decoherence
                               ? decoherenceKraus(device, dt)
                               : std::vector<std::vector<CMatrix>>{};
        for (size_t s = 0; s < steps; ++s) {
            const double t_mid = (double(s) + 0.5) * dt;
            apply(zz_half, state);
            for (const core::ScheduledGate &sg : layer.gates) {
                const pulse::PulseProgram &p =
                    library.get(pulseKind(sg.gate));
                if (t_mid >= p.duration)
                    continue;
                std::vector<int> qubits{sg.gate.qubits[0]};
                if (sg.gate.isTwoQubit())
                    qubits.push_back(sg.gate.qubits[1]);
                apply(la::embed(driveStep(p, t_mid, dt), qubits, n),
                      state);
            }
            apply(zz_half, state);
            for (const std::vector<CMatrix> &channel : kraus)
                applyKraus(channel, state);
        }
    }
}

double
maxAbsDiff(const CMatrix &a, const CMatrix &b)
{
    require(a.rows() == b.rows() && a.cols() == b.cols(),
            "maxAbsDiff: shape mismatch");
    double worst = 0.0;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    return worst;
}

} // namespace qzz::sim::oracle
