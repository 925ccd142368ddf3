#include "sim/pulse_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <variant>

#include "common/error.h"
#include "common/parallel.h"
#include "sim/density_matrix.h"
#include "sim/drive_step.h"

namespace qzz::sim {

using la::cplx;
using pulse::PulseGate;
using pulse::PulseProgram;

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

/** Metric label of each register's simulator (qzz_sim_*{sim=...}). */
template <class Reg> constexpr const char *kFlavor = "statevector";
template <> constexpr const char *kFlavor<DensityMatrix> = "density";

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

/** Registers that store at least this many entries split each layer
 *  on its idle qubits: a state vector from 9 qubits (2^n amplitudes),
 *  a density matrix from 5 (4^n entries).  A smaller layer is about
 *  as much work as one pool dispatch (10-170 us measured on a 4-vCPU
 *  host), so it runs unsplit (docs/performance.md has the
 *  measurements). */
constexpr size_t kMinSplitEntries = size_t(1) << 9;

size_t
storedEntries(const StateVector &psi)
{
    return psi.dim();
}

size_t
storedEntries(const DensityMatrix &rho)
{
    return rho.dim() * rho.dim();
}

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

/** A job as the step loop sees it: its kind and its qubits, local to
 *  the sub-register after a split (q1 = -1 for single-qubit jobs). */
struct StepJob
{
    int kind;
    int q0, q1;
};

/** One physical layer, resolved for the step loop. */
struct LayerPlan
{
    double dt = 0.0;
    size_t steps = 0;
    std::vector<StepJob> jobs;
    /** steps x kKinds propagators, step-major. */
    std::vector<StepOp> ops;
};

LayerPlan
planLayer(const core::Layer &layer, const pulse::PulseLibrary &library,
          double dt_opt, StepPropagatorMemo &memo)
{
    LayerPlan plan;
    plan.steps = layerSteps(layer, dt_opt, plan.dt);
    const std::vector<Job> jobs = collectJobs(layer, library);
    plan.jobs.reserve(jobs.size());
    for (const Job &j : jobs)
        plan.jobs.push_back({pulseKindIndex(j.kind), j.q0, j.q1});

    // Resolve every (step, kind) propagator here, before any fan-out:
    // the memo is not thread-safe, and growing a slot invalidates the
    // references it returned.  Walking the steps backwards makes each
    // kind's first request its largest step, so a slot grows at most
    // once and every pointer taken afterwards stays valid.  All jobs
    // of a kind share one program, so they share the entry.
    plan.ops.resize(plan.steps * kKinds);
    for (size_t s = plan.steps; s-- > 0;) {
        const double t_mid = (double(s) + 0.5) * plan.dt;
        for (const Job &job : jobs) {
            StepOp &op =
                plan.ops[s * kKinds + size_t(pulseKindIndex(job.kind))];
            if (op.u1 || op.u2 || t_mid >= job.program->duration)
                continue; // resolved, or this kind's pulses have ended
            if (job.q1 < 0)
                op.u1 = &memo.get1Q(*job.program, job.kind, s, plan.dt);
            else
                op.u2 = &memo.get2Q(*job.program, job.kind, s, plan.dt);
        }
    }
    return plan;
}

/** Clocks of one step loop, one per kernel class. */
struct StepTimers
{
    explicit StepTimers(bool on) : phase(on), gate(on), decoh(on) {}
    KernelTimer phase, gate, decoh;
};

/** Kernel-class wall times of one layer (ns).  Only a layer with a
 *  Kraus channel times the decoherence class. */
struct LayerTimes
{
    double phase = 0.0;
    double gate = 0.0;
    std::optional<double> decoh;
};

/** No channel between Strang steps: every state vector, and a density
 *  matrix on a fully coherent device. */
using NoChannel = std::monostate;

/** The per-step T1/T2 Kraus channel: decay probability gamma[q] and
 *  dephasing retention keep[q] of every qubit over one step. */
struct Decoherence
{
    std::vector<double> gamma, keep;
};

/** The Kraus factors for one step of @p dt, from the calibrated
 *  T1(q)/T2(q); none on a fully coherent device.  dt is fixed within
 *  a layer, so a layer computes them once. */
std::optional<Decoherence>
decoherence(const dev::Device &device, double dt)
{
    const int n = device.numQubits();
    bool any = false;
    for (int q = 0; q < n; ++q)
        any = any || std::isfinite(device.t1(q)) ||
              std::isfinite(device.t2(q));
    if (!any)
        return std::nullopt;
    Decoherence d;
    d.gamma.assign(size_t(n), 0.0);
    d.keep.assign(size_t(n), 1.0);
    for (int q = 0; q < n; ++q) {
        // Each qubit decays at its own calibrated rates (the snapshot
        // is heterogeneous in general): gamma from T1(q), and the
        // pure-dephasing keep factor from 1/T_phi = 1/T2 - 1/(2 T1).
        const double t1 = device.t1(q);
        const double t2 = device.t2(q);
        if (std::isfinite(t1))
            d.gamma[size_t(q)] = 1.0 - std::exp(-dt / t1);
        double rate_phi = 0.0;
        if (std::isfinite(t2))
            rate_phi = 1.0 / t2 - (std::isfinite(t1) ? 0.5 / t1 : 0.0);
        rate_phi = std::max(0.0, rate_phi);
        d.keep[size_t(q)] = std::exp(-dt * rate_phi);
    }
    return d;
}

/** The per-entry tables one part's step loop multiplies by, each with
 *  one entry per entry of the part.  @c half is the ZZ half-step and
 *  @c full the full step of merged steps.  With a Kraus channel,
 *  @c scale is its entrywise part S and @c lead = half * S, the
 *  leading multiply of every step after the first. */
struct StepTables
{
    std::span<const cplx> half, full, lead, scale;
};

/** The half- and full-step phase vectors of a layer over @p energies;
 *  the full step only when steps merge. */
struct PhaseVectors
{
    la::CVector half, full;

    PhaseVectors(const std::vector<double> &energies, const LayerPlan &plan,
                 bool merge)
        : half(phaseVector(energies, plan.dt / 2.0)),
          full(merge && plan.steps > 1 ? phaseVector(energies, plan.dt)
                                       : la::CVector{})
    {
    }
};

std::span<cplx>
entries(StateVector &psi)
{
    return psi.amplitudes();
}

/**
 * The Strang step loop of one layer on one register: the whole
 * register, or one part of a split layer (a state-vector
 * sub-register, a density-matrix XorClass) with @p tab its tables.
 * Phases are diagonal, so without a channel between steps the
 * trailing ZZ half-step of step s and the leading one of step s+1
 * merge into one full-step sweep: steps+1 phase applications instead
 * of 2*steps.  A Kraus channel D = S T keeps the halves apart.  Its
 * transfers T run after every trailing half-step.  Its entrywise
 * scale S is diagonal, so it commutes with the ZZ phase and with the
 * transfers of the other qubits: it rides the next step's leading
 * multiply (@c lead), and one S pass closes the layer.
 */
template <class Reg, class Channel>
void
runSteps(Reg &reg, const StepTables &tab, const LayerPlan &plan,
         const std::vector<StepJob> &jobs,
         [[maybe_unused]] const Channel &channel, StepTimers &t)
{
    constexpr bool merge = std::is_same_v<Channel, NoChannel>;
    const size_t steps = plan.steps;
    const auto multiply = [&](KernelTimer &timer, std::span<const cplx> p) {
        timer.start();
        multiplyEntries(entries(reg), p);
        timer.stop();
    };

    for (size_t s = 0; s < steps; ++s) {
        if (s == 0 || !merge)
            multiply(t.phase, s == 0 ? tab.half : tab.lead);
        const StepOp *op = &plan.ops[s * kKinds];
        t.gate.start();
        for (const StepJob &j : jobs) {
            const StepOp &u = op[j.kind];
            if (u.u1)
                reg.apply1Q(*u.u1, j.q0);
            else if (u.u2)
                reg.apply2Q(*u.u2, j.q0, j.q1);
        }
        t.gate.stop();
        multiply(t.phase, merge && s + 1 < steps ? tab.full : tab.half);
        if constexpr (!merge) {
            t.decoh.start();
            reg.transferPopulations(channel.gamma);
            t.decoh.stop();
        }
    }
    if constexpr (!merge)
        multiply(t.decoh, tab.scale);
}

/** Full-register index of entry @p l of part @p part: the split
 *  bits (at ascending positions @p pos) are spliced in, bit i of
 *  @p part going to position pos[i]. */
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

/** The idle qubits a layer splits on, and its jobs on the others. */
struct Split
{
    /** Number of split qubits. */
    int m = 0;
    /** Their bit positions, ascending: bit i of a part index is the
     *  register bit at pos[i]. */
    int pos[kMaxSplitQubits] = {};
    /** Per qubit: its index among the qubits left, or -1 - i for the
     *  qubit at pos[i]. */
    std::vector<int> local;
    /** The layer's jobs on local qubits. */
    std::vector<StepJob> jobs;
};

/** Split on up to two qubits no job touches, lowest index (highest
 *  bit) first; none when @p allowed is false. */
Split
splitLayer(const std::vector<StepJob> &jobs, int n, bool allowed)
{
    uint64_t busy = 0;
    for (const StepJob &j : jobs)
        busy |= (uint64_t(1) << j.q0) |
                (j.q1 >= 0 ? uint64_t(1) << j.q1 : 0);
    Split s;
    int idle[kMaxSplitQubits] = {};
    if (allowed)
        for (int q = 0; q < n && s.m < kMaxSplitQubits; ++q)
            if (!((busy >> q) & 1))
                idle[s.m++] = q;

    // idle[] holds descending bit positions; pos[] ascends.
    s.local.assign(size_t(n), 0);
    for (int i = 0; i < s.m; ++i) {
        const int q = idle[s.m - 1 - i];
        s.pos[i] = n - 1 - q;
        s.local[size_t(q)] = -1 - i;
    }
    for (int q = 0, l = 0; q < n; ++q)
        if (s.local[size_t(q)] >= 0)
            s.local[size_t(q)] = l++;
    s.jobs.reserve(jobs.size());
    for (const StepJob &j : jobs)
        s.jobs.push_back({j.kind, s.local[size_t(j.q0)],
                          j.q1 < 0 ? -1 : s.local[size_t(j.q1)]});
    return s;
}

/**
 * One XOR class of a density matrix split on m idle qubits: the
 * entries rho[r, c] whose split bits read a in r and a ^ x in c, for
 * all 2^m values of a.  It stores them as 2^m blocks of (n - m)
 * qubits, block a after block a - 1, so the class is one flat array
 * for the block kernels (sim/density_matrix.h).  A layer that leaves
 * the split qubits idle keeps r ^ c fixed on them in every operation
 * (docs/performance.md), so a class runs the whole layer alone.  With
 * m = 0 the one class is the whole matrix.  It offers runSteps() the
 * register interface.
 */
class XorClass
{
  public:
    XorClass(const DensityMatrix &rho, const Split &split, size_t x)
        : split_(split), x_(x), d_(rho.dim()), cols_(d_ >> split.m),
          index_(2 * d_), entries_(d_ * cols_)
    {
        for (size_t r = 0; r < d_; ++r) {
            const size_t a = r / cols_;
            index_[r] = spliceIndex(r % cols_, a, split_.pos, split_.m);
            index_[d_ + r] =
                spliceIndex(r % cols_, a ^ x_, split_.pos, split_.m);
        }
        const cplx *full = rho.matrix().data();
        walk([&](size_t k, size_t i) { entries_[i] = full[k]; });
    }

    void
    scatter(DensityMatrix &rho) const
    {
        cplx *full = rho.matrix().data();
        walk([&](size_t k, size_t i) { full[k] = entries_[i]; });
    }

    std::span<cplx> entries() { return entries_; }

    /** The layer's tables of a coherent device, in one buffer. */
    StepTables
    tables(const PhaseVectors &p, NoChannel)
    {
        tables_.resize((p.full.empty() ? 1 : 2) * entries_.size());
        phaseTable(table(0), cols_, rows(), columns(), p.half);
        if (p.full.empty())
            return {table(0), {}, {}, {}};
        phaseTable(table(1), cols_, rows(), columns(), p.full);
        return {table(0), table(1), {}, {}};
    }

    /** The layer's tables with a Kraus channel, in one buffer. */
    StepTables
    tables(const PhaseVectors &p, const Decoherence &d)
    {
        tables_.resize(3 * entries_.size());
        const std::span<cplx> half = table(0), lead = table(1),
                              scale = table(2);
        phaseTable(half, cols_, rows(), columns(), p.half);
        scaleTable(scale, cols_, rows(), columns(), d.gamma, d.keep);
        std::ranges::copy(half, lead.begin());
        multiplyEntries(lead, scale);
        return {half, {}, lead, scale};
    }

    void
    apply1Q(const la::Mat2 &u, int q)
    {
        conjugate1Q(entries_, cols_, u, stride(q));
    }

    void
    apply2Q(const la::Mat4 &u, int q_hi, int q_lo)
    {
        conjugate2Q(entries_, cols_, u, stride(q_hi), stride(q_lo));
    }

    /** Damping's transfer of every qubit in the whole register's
     *  order, qubit by qubit ascending.  A split qubit pairs the blocks
     *  that differ in its bit, in a class that reads 0 there: only
     *  that class holds the qubit's populations.  Any other qubit acts
     *  inside every block. */
    void
    transferPopulations(const std::vector<double> &gamma)
    {
        for (size_t q = 0; q < split_.local.size(); ++q) {
            const int l = split_.local[q];
            if (l >= 0) {
                transferPopulation(entries_, cols_, stride(l), gamma[q]);
                continue;
            }
            const size_t bit = size_t(1) << (-1 - l);
            if (!(x_ & bit))
                transferPopulationAcross(entries_, bit * cols_ * cols_,
                                         gamma[q]);
        }
    }

  private:
    const Split &split_;
    size_t x_;
    size_t d_;
    size_t cols_;
    /** The full-register row of every class row, then the
     *  full-register column of every column of every block. */
    std::vector<size_t> index_;
    std::vector<cplx> entries_;
    std::vector<cplx> tables_;

    size_t stride(int q) const { return cols_ >> (q + 1); }

    std::span<const size_t> rows() const { return {index_.data(), d_}; }
    std::span<const size_t> columns() const
    {
        return {index_.data() + d_, d_};
    }

    std::span<cplx>
    table(size_t t)
    {
        return std::span<cplx>(tables_).subspan(t * entries_.size(),
                                                entries_.size());
    }

    /** Call @p f(k, i) for entry k of rho and entry i of the class
     *  holding it, in class order: class row r is row r % cols_ of
     *  block r / cols_. */
    template <class F>
    void
    walk(F f) const
    {
        for (size_t r = 0, i = 0; r < d_; ++r) {
            const size_t row = index_[r] * d_;
            const size_t *col = index_.data() + d_ + r / cols_ * cols_;
            for (size_t c = 0; c < cols_; ++c, ++i)
                f(row + col[c], i);
        }
    }
};

std::span<cplx>
entries(XorClass &cls)
{
    return cls.entries();
}

/** Sub-register @p part of a state vector split on @p split: its
 *  amplitudes and its slice of the ZZ table are gathered, run through
 *  @p steps with the slice's phase vectors and scattered back.  An
 *  unsplit register runs in place. */
template <class Steps>
void
runPart(StateVector &psi, const std::vector<double> &zz,
        const LayerPlan &plan, const Split &split, size_t part, NoChannel,
        const Steps &steps)
{
    if (split.m == 0) {
        const PhaseVectors p(zz, plan, true);
        steps(psi, StepTables{p.half, p.full, {}, {}}, part);
        return;
    }
    StateVector sub(psi.numQubits() - split.m);
    std::vector<double> energies(sub.dim());
    cplx *amps = psi.amplitudes().data();
    for (size_t l = 0; l < sub.dim(); ++l) {
        const size_t k = spliceIndex(l, part, split.pos, split.m);
        sub.amplitudes()[l] = amps[k];
        energies[l] = zz[k];
    }
    const PhaseVectors p(energies, plan, true);
    steps(sub, StepTables{p.half, p.full, {}, {}}, part);
    for (size_t l = 0; l < sub.dim(); ++l)
        amps[spliceIndex(l, part, split.pos, split.m)] = sub.amplitudes()[l];
}

/** XOR class @p part of a density matrix split on @p split, likewise,
 *  with its tables built from the whole register's phase vectors. */
template <class Channel, class Steps>
void
runPart(DensityMatrix &rho, const std::vector<double> &zz,
        const LayerPlan &plan, const Split &split, size_t part,
        const Channel &channel, const Steps &steps)
{
    XorClass cls(rho, split, part);
    const PhaseVectors p(zz, plan, std::is_same_v<Channel, NoChannel>);
    steps(cls, cls.tables(p, channel), part);
    cls.scatter(rho);
}

/** A state vector has no channel. */
template <class F>
void
withChannel(const StateVector &, const dev::Device &, double, const F &f)
{
    f(NoChannel{});
}

/** A density matrix takes the Kraus channel whenever the device has a
 *  finite T1 or T2. */
template <class F>
void
withChannel(const DensityMatrix &, const dev::Device &device, double dt,
            const F &f)
{
    if (const std::optional<Decoherence> d = decoherence(device, dt))
        f(*d);
    else
        f(NoChannel{});
}

/**
 * One layer on either register.  From kMinSplitEntries stored
 * entries on, the layer splits on its idle qubits into 2^m parts —
 * sub-registers of a state vector, XOR classes of a density matrix —
 * that each run the whole step loop in one common::parallelFor()
 * block, with no barrier.  m = 0 runs one part: the state vector in
 * place, the density matrix as its one class.
 */
template <class Reg>
LayerTimes
integrate(Reg &reg, const std::vector<double> &zz, const LayerPlan &plan,
          const dev::Device &device, bool tm)
{
    const Split split = splitLayer(plan.jobs, reg.numQubits(),
                                   storedEntries(reg) >= kMinSplitEntries);
    const size_t parts = size_t(1) << split.m;
    double phase_ns[1 << kMaxSplitQubits] = {};
    double gate_ns[1 << kMaxSplitQubits] = {};
    double decoh_ns[1 << kMaxSplitQubits] = {};
    bool kraus = false;
    withChannel(reg, device, plan.dt, [&](const auto &channel) {
        kraus = !std::is_same_v<std::decay_t<decltype(channel)>, NoChannel>;
        const auto steps = [&](auto &r, const StepTables &tab, size_t part) {
            StepTimers t(tm);
            runSteps(r, tab, plan, split.jobs, channel, t);
            phase_ns[part] = t.phase.ns();
            gate_ns[part] = t.gate.ns();
            decoh_ns[part] = t.decoh.ns();
        };
        const auto run = [&](size_t part) {
            runPart(reg, zz, plan, split, part, channel, steps);
        };
        if (split.m == 0)
            run(0);
        else
            common::parallelFor(0, parts, 1, [&](size_t lo, size_t hi) {
                for (size_t part = lo; part < hi; ++part)
                    run(part);
            });
    });

    // Parts run side by side, so the mean over them is the layer's
    // wall time in each kernel class.
    LayerTimes times;
    double decoh = 0.0;
    for (size_t part = 0; part < parts; ++part) {
        times.phase += phase_ns[part];
        times.gate += gate_ns[part];
        decoh += decoh_ns[part];
    }
    times.phase /= double(parts);
    times.gate /= double(parts);
    if (kraus)
        times.decoh = decoh / double(parts);
    return times;
}

} // namespace

template <class Reg>
ScheduleSimulator<Reg>::ScheduleSimulator(const dev::Device &device,
                                          const pulse::PulseLibrary &library,
                                          PulseSimOptions options)
    : device_(device), library_(library), options_(options)
{
    require(options_.dt > 0.0, "ScheduleSimulator: bad dt");
    std::vector<std::array<int, 2>> edges;
    std::vector<double> lambdas;
    for (const graph::Edge &e : device_.graph().edges()) {
        edges.push_back({e.u, e.v});
        lambdas.push_back(device_.coupling(e.id) *
                          options_.crosstalk_scale);
    }
    zz_energies_ = zzEnergyTable(device_.numQubits(), edges, lambdas);
    if (options_.telemetry)
        metrics_ = simMetrics(kFlavor<Reg>);
}

template <class Reg>
void
ScheduleSimulator<Reg>::runLayer(const core::Layer &layer, Reg &reg) const
{
    StepPropagatorMemo memo;
    runLayer(layer, reg, memo);
}

template <class Reg>
void
ScheduleSimulator<Reg>::runLayer(const core::Layer &layer, Reg &reg,
                                 StepPropagatorMemo &memo) const
{
    if (layer.is_virtual) {
        for (const core::ScheduledGate &sg : layer.gates) {
            ensure(sg.gate.kind == ckt::GateKind::RZ,
                   "virtual layer contains non-RZ gate");
            reg.applyRz(sg.gate.qubits[0], sg.gate.params[0]);
        }
        return;
    }
    if (layer.duration <= 0.0)
        return;

    const LayerPlan plan = planLayer(layer, library_, options_.dt, memo);
    const LayerTimes times =
        integrate(reg, zz_energies_, plan, device_, metrics_.enabled());
    if (metrics_.enabled()) {
        metrics_.layers->inc();
        metrics_.steps->inc(plan.steps);
        metrics_.phase_ns->observe(times.phase);
        metrics_.gate_ns->observe(times.gate);
        if (times.decoh)
            metrics_.decoh_ns->observe(*times.decoh);
    }
}

template <class Reg>
void
ScheduleSimulator<Reg>::run(const core::Schedule &schedule, Reg &reg) const
{
    require(schedule.num_qubits == device_.numQubits(),
            "ScheduleSimulator::run: schedule/device mismatch");
    StepPropagatorMemo memo;
    for (const core::Layer &layer : schedule.layers)
        runLayer(layer, reg, memo);
}

template <class Reg>
Reg
ScheduleSimulator<Reg>::run(const core::Schedule &schedule) const
{
    Reg reg(device_.numQubits());
    run(schedule, reg);
    return reg;
}

template class ScheduleSimulator<StateVector>;
template class ScheduleSimulator<DensityMatrix>;

} // namespace qzz::sim
