#include "sim/pulse_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/parallel.h"
#include "sim/drive_step.h"

namespace qzz::sim {

using la::CMatrix;
using la::cplx;
using pulse::PulseGate;
using pulse::PulseProgram;

PulseScheduleSimulator::PulseScheduleSimulator(
    const dev::Device &device, const pulse::PulseLibrary &library,
    PulseSimOptions options)
    : device_(device), library_(library), options_(options)
{
    require(options_.dt > 0.0, "PulseScheduleSimulator: bad dt");
    std::vector<std::array<int, 2>> edges;
    std::vector<double> lambdas;
    for (const graph::Edge &e : device_.graph().edges()) {
        edges.push_back({e.u, e.v});
        lambdas.push_back(device_.coupling(e.id) *
                          options_.crosstalk_scale);
    }
    zz_energies_ =
        zzEnergyTable(device_.numQubits(), edges, lambdas);
    if (options_.telemetry)
        metrics_ = simMetrics("statevector");
}

la::CVector
phaseVector(const std::vector<double> &energies, double dt)
{
    la::CVector p(energies.size());
    for (size_t k = 0; k < energies.size(); ++k) {
        const double phi = energies[k] * dt;
        p[k] = cplx{std::cos(phi), -std::sin(phi)};
    }
    return p;
}

namespace {

/** One pulse job of a layer, with the library lookup done once. */
struct Job
{
    const PulseProgram *program;
    PulseGate kind;
    int q0, q1; // q1 = -1 for single-qubit jobs
};

std::vector<Job>
collectJobs(const core::Layer &layer, const pulse::PulseLibrary &library)
{
    std::vector<Job> jobs;
    jobs.reserve(layer.gates.size());
    for (const core::ScheduledGate &sg : layer.gates) {
        const PulseGate kind = pulseGateOf(sg.gate);
        Job j;
        j.program = &library.get(kind);
        j.kind = kind;
        j.q0 = sg.gate.qubits[0];
        j.q1 = sg.gate.isTwoQubit() ? sg.gate.qubits[1] : -1;
        jobs.push_back(j);
    }
    return jobs;
}

/** Step count and width for one physical layer. */
size_t
layerSteps(const core::Layer &layer, double dt_opt, double &dt)
{
    const size_t steps = std::max<size_t>(
        1, size_t(std::ceil(layer.duration / dt_opt)));
    dt = layer.duration / double(steps);
    return steps;
}

/** Registers of at least this many qubits split each layer on its
 *  idle qubits.  A 4-6 qubit layer is ~0.1 ms of work, the same order
 *  as one pool dispatch (10-170 us measured on a 4-vCPU host), so
 *  smaller registers run unsplit (docs/performance.md has the
 *  measurement). */
constexpr int kMinSplitQubits = 9;
/** Split on at most this many idle qubits: 2^2 sub-registers. */
constexpr int kMaxSplitQubits = 2;

/** Pulsed gate kinds, indexed by pulseKindIndex(). */
constexpr size_t kKinds = 3;

/** One gate kind's propagator at one step: the memoized 2x2 or 4x4,
 *  or neither once that kind's pulses have ended. */
struct StepOp
{
    const la::Mat2 *u1 = nullptr;
    const la::Mat4 *u2 = nullptr;
};

/** A job as the step loop sees it: its kind and its register-local
 *  qubits (q1 = -1 for single-qubit jobs). */
struct LocalJob
{
    int kind;
    int q0, q1;
};

/**
 * The Strang step loop of one layer on one register: the whole
 * register, or a sub-register with @p energies its slice of the ZZ
 * table.  @p ops holds steps x kKinds propagators, step-major.
 */
void
runSteps(StateVector &reg, const std::vector<double> &energies,
         double dt, size_t steps, const std::vector<LocalJob> &jobs,
         const std::vector<StepOp> &ops, KernelTimer &phase_t,
         KernelTimer &gate_t)
{
    // Phases are diagonal and the evolution has no mid-step Kraus
    // channel, so the trailing ZZ half-step of step s and the leading
    // one of step s+1 merge into one full-step sweep: steps+1 phase
    // applications instead of 2*steps.
    const la::CVector p_half = phaseVector(energies, dt / 2.0);
    const la::CVector p_full =
        steps > 1 ? phaseVector(energies, dt) : la::CVector{};

    phase_t.start();
    reg.applyPhaseVector(p_half);
    phase_t.stop();
    for (size_t s = 0; s < steps; ++s) {
        const StepOp *op = &ops[s * kKinds];
        gate_t.start();
        for (const LocalJob &j : jobs) {
            const StepOp &u = op[j.kind];
            if (u.u1)
                reg.apply1Q(*u.u1, j.q0);
            else if (u.u2)
                reg.apply2Q(*u.u2, j.q0, j.q1);
        }
        gate_t.stop();
        phase_t.start();
        reg.applyPhaseVector(s + 1 < steps ? p_full : p_half);
        phase_t.stop();
    }
}

/** Full-register index of amplitude @p l of sub-register @p part:
 *  the split bits (at ascending positions @p pos) are spliced in,
 *  bit i of @p part going to position pos[i]. */
size_t
spliceIndex(size_t l, size_t part, const int *pos, int m)
{
    for (int i = 0; i < m; ++i) {
        const size_t low = l & ((size_t(1) << pos[i]) - 1);
        l = ((l >> pos[i]) << (pos[i] + 1)) | (((part >> i) & 1) << pos[i]) |
            low;
    }
    return l;
}

} // namespace

void
PulseScheduleSimulator::runLayer(const core::Layer &layer,
                                 StateVector &psi) const
{
    StepPropagatorMemo memo;
    runLayerImpl(layer, psi, memo);
}

void
PulseScheduleSimulator::runLayerImpl(const core::Layer &layer,
                                     StateVector &psi,
                                     StepPropagatorMemo &memo) const
{
    if (layer.is_virtual) {
        for (const core::ScheduledGate &sg : layer.gates) {
            ensure(sg.gate.kind == ckt::GateKind::RZ,
                   "virtual layer contains non-RZ gate");
            psi.applyRz(sg.gate.qubits[0], sg.gate.params[0]);
        }
        return;
    }
    if (layer.duration <= 0.0)
        return;
    if (options_.scalar_reference) {
        runLayerScalar(layer, psi);
        return;
    }

    double dt = 0.0;
    const size_t steps = layerSteps(layer, options_.dt, dt);
    const std::vector<Job> jobs = collectJobs(layer, library_);
    const int n = psi.numQubits();

    // Resolve every (step, kind) propagator here, before any fan-out:
    // the memo is not thread-safe, and growing a slot invalidates the
    // references it returned.  Walking the steps backwards makes each
    // kind's first request its largest step, so a slot grows at most
    // once and every pointer taken afterwards stays valid.  All jobs
    // of a kind share one program, so they share the entry.
    std::vector<StepOp> ops(steps * kKinds);
    for (size_t s = steps; s-- > 0;) {
        const double t_mid = (double(s) + 0.5) * dt;
        for (const Job &job : jobs) {
            StepOp &op = ops[s * kKinds + size_t(pulseKindIndex(job.kind))];
            if (op.u1 || op.u2 || t_mid >= job.program->duration)
                continue; // resolved, or this kind's pulses have ended
            if (job.q1 < 0)
                op.u1 = &memo.get1Q(*job.program, job.kind, s, dt);
            else
                op.u2 = &memo.get2Q(*job.program, job.kind, s, dt);
        }
    }

    // Split on up to two qubits no job touches, lowest index (highest
    // bit) first.  With those bits fixed the register falls apart into
    // 2^m sub-registers: the ZZ phase is diagonal and every job acts
    // inside one sub-register, so each runs the whole layer alone.
    uint64_t busy = 0;
    for (const Job &j : jobs)
        busy |= (uint64_t(1) << j.q0) |
                (j.q1 >= 0 ? uint64_t(1) << j.q1 : 0);
    int split[kMaxSplitQubits] = {};
    int m = 0;
    if (n >= kMinSplitQubits)
        for (int q = 0; q < n && m < kMaxSplitQubits; ++q)
            if (!((busy >> q) & 1))
                split[m++] = q;

    const auto localQubit = [&](int q) {
        return q - int(std::count_if(split, split + m,
                                     [&](int sq) { return sq < q; }));
    };
    std::vector<LocalJob> local;
    local.reserve(jobs.size());
    for (const Job &j : jobs)
        local.push_back({pulseKindIndex(j.kind), localQubit(j.q0),
                         j.q1 < 0 ? -1 : localQubit(j.q1)});

    const bool tm = metrics_.enabled();
    const size_t parts = size_t(1) << m;
    double phase_ns[1 << kMaxSplitQubits] = {};
    double gate_ns[1 << kMaxSplitQubits] = {};
    const auto integrate = [&](StateVector &reg,
                               const std::vector<double> &energies,
                               size_t part) {
        KernelTimer phase_t(tm), gate_t(tm);
        runSteps(reg, energies, dt, steps, local, ops, phase_t, gate_t);
        phase_ns[part] = phase_t.ns();
        gate_ns[part] = gate_t.ns();
    };
    if (m == 0) {
        integrate(psi, zz_energies_, 0);
    } else {
        // Bit positions of the split qubits, ascending (split[] holds
        // descending positions), so part bit i sits at pos[i].
        int pos[kMaxSplitQubits] = {};
        for (int i = 0; i < m; ++i)
            pos[i] = n - 1 - split[m - 1 - i];
        cplx *amps = psi.amplitudes().data();
        common::parallelFor(0, parts, 1, [&](size_t lo, size_t hi) {
            for (size_t part = lo; part < hi; ++part) {
                StateVector sub(n - m);
                std::vector<double> energies(sub.dim());
                for (size_t l = 0; l < sub.dim(); ++l) {
                    const size_t k = spliceIndex(l, part, pos, m);
                    sub.amplitudes()[l] = amps[k];
                    energies[l] = zz_energies_[k];
                }
                integrate(sub, energies, part);
                for (size_t l = 0; l < sub.dim(); ++l)
                    amps[spliceIndex(l, part, pos, m)] =
                        sub.amplitudes()[l];
            }
        });
    }

    if (tm) {
        // Sub-registers run side by side, so the mean over them is the
        // layer's wall time in each kernel class.
        double phase = 0.0, gate = 0.0;
        for (size_t part = 0; part < parts; ++part) {
            phase += phase_ns[part];
            gate += gate_ns[part];
        }
        metrics_.layers->inc();
        metrics_.steps->inc(steps);
        metrics_.phase_ns->observe(phase / double(parts));
        metrics_.gate_ns->observe(gate / double(parts));
    }
}

void
PulseScheduleSimulator::runLayerScalar(const core::Layer &layer,
                                       StateVector &psi) const
{
    double dt = 0.0;
    const size_t steps = layerSteps(layer, options_.dt, dt);
    const std::vector<Job> jobs = collectJobs(layer, library_);

    for (size_t s = 0; s < steps; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        psi.applyDiagonalPhase(zz_energies_, dt / 2.0);

        // Per-kind propagator cache: simultaneous gates of one kind
        // share the same waveforms.
        CMatrix cached[3];
        bool have[3] = {false, false, false};
        for (const Job &j : jobs) {
            if (t_mid >= j.program->duration)
                continue;
            const int ki = pulseKindIndex(j.kind);
            if (!have[ki]) {
                cached[ki] =
                    j.q1 < 0
                        ? drive1QStepScalar(*j.program, t_mid, dt)
                        : drive2QStepScalar(*j.program, t_mid, dt);
                have[ki] = true;
            }
            if (j.q1 < 0)
                psi.apply1Q(cached[ki], j.q0);
            else
                psi.apply2Q(cached[ki], j.q0, j.q1);
        }

        psi.applyDiagonalPhase(zz_energies_, dt / 2.0);
    }
    if (metrics_.enabled()) {
        metrics_.layers->inc();
        metrics_.steps->inc(steps);
    }
}

void
PulseScheduleSimulator::run(const core::Schedule &schedule,
                            StateVector &psi) const
{
    require(schedule.num_qubits == device_.numQubits(),
            "PulseScheduleSimulator::run: schedule/device mismatch");
    StepPropagatorMemo memo;
    for (const core::Layer &layer : schedule.layers)
        runLayerImpl(layer, psi, memo);
}

StateVector
PulseScheduleSimulator::run(const core::Schedule &schedule) const
{
    StateVector psi(device_.numQubits());
    run(schedule, psi);
    return psi;
}

} // namespace qzz::sim
