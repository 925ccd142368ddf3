#include "sim/pulse_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#include "common/error.h"
#include "common/parallel.h"
#include "sim/density_matrix.h"
#include "sim/drive_step.h"

namespace qzz::sim {

using la::cplx;
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

/** Registers that store at least this many entries split on idle
 *  qubits: a state vector from 9 qubits (2^n amplitudes), a density
 *  matrix from 5 (4^n entries).  A smaller layer is about as much
 *  work as one pool dispatch (10-170 us measured on a 4-vCPU host),
 *  so the whole schedule runs unsplit (docs/performance.md has the
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

/** Split on at most this many idle qubits: 2^2 parts. */
constexpr int kMaxSplitQubits = 2;

/** Pulsed gate kinds, indexed by pulseKindIndex(). */
constexpr size_t kKinds = 3;

/** Steps between two timed steps in the middle of a step loop. */
constexpr size_t kTimedStride = 16;

/** A pulse job of a physical layer (its kind index and qubits, q1 = -1
 *  for single-qubit jobs), or an RZ of a virtual layer (kind -1, on
 *  q0 by theta). */
struct StepJob
{
    int kind;
    int q0, q1;
    double theta;
};

/** The per-step T1/T2 Kraus channel: decay probability gamma[q] and
 *  dephasing retention keep[q] of every qubit over one step. */
struct Decoherence
{
    std::vector<double> gamma, keep;
};

/** A state vector has no channel. */
std::optional<Decoherence>
channel(const StateVector &, const dev::Device &, double)
{
    return std::nullopt;
}

/** A density matrix takes the Kraus factors for one step of @p dt,
 *  from the calibrated T1(q)/T2(q); none on a fully coherent
 *  device. */
std::optional<Decoherence>
channel(const DensityMatrix &, const dev::Device &device, double dt)
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

/** What every layer of one step width shares: per pulsed gate kind,
 *  its drive propagator at each step until its pulses end, and the
 *  Kraus channel of one step. */
struct StepWidth
{
    double dt = 0.0;
    std::vector<la::Mat2> u1[kKinds];
    std::vector<la::Mat4> u2[kKinds];
    std::optional<Decoherence> channel;
};

/** One layer of a schedule: its jobs in [first, last) of
 *  RunPlan::jobs, and for a physical layer its step count, step width
 *  and the qubits its pulses touch (steps = 0: a virtual layer). */
struct LayerPlan
{
    size_t first = 0, last = 0;
    size_t steps = 0;
    size_t width = 0;
    uint64_t busy = 0;
};

/** A schedule resolved for the step loops, before any fan-out. */
struct RunPlan
{
    std::vector<LayerPlan> layers;
    std::vector<StepJob> jobs;
    std::vector<StepWidth> widths;
};

/** Extend @p mats, the propagators of one kind at width @p dt, to the
 *  first @p steps steps or to the end of the kind's pulses. */
template <class M, class Step>
void
resolve(std::vector<M> &mats, const PulseProgram &program, double dt,
        size_t steps, Step drive)
{
    mats.reserve(steps);
    for (size_t s = mats.size(); s < steps; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        if (t_mid >= program.duration)
            break;
        drive(program, t_mid, dt, mats.emplace_back());
    }
}

/** Every layer's jobs and step count, and every propagator the step
 *  loops read: one per (step width, kind, step), computed here once
 *  per run because the step loops of all parts share them. */
template <class Reg>
RunPlan
planRun(const core::Schedule &schedule, const pulse::PulseLibrary &library,
        const dev::Device &device, double dt_opt, const Reg &reg)
{
    RunPlan plan;
    for (const core::Layer &layer : schedule.layers) {
        if (!layer.is_virtual && layer.duration <= 0.0)
            continue;
        LayerPlan l;
        l.first = plan.jobs.size();
        if (layer.is_virtual) {
            for (const core::ScheduledGate &sg : layer.gates) {
                ensure(sg.gate.kind == ckt::GateKind::RZ,
                       "virtual layer contains non-RZ gate");
                plan.jobs.push_back(
                    {-1, sg.gate.qubits[0], -1, sg.gate.params[0]});
            }
        } else {
            l.steps = std::max<size_t>(
                1, size_t(std::ceil(layer.duration / dt_opt)));
            const double dt = layer.duration / double(l.steps);
            const auto w = std::ranges::find(plan.widths, dt, &StepWidth::dt);
            l.width = size_t(w - plan.widths.begin());
            if (w == plan.widths.end())
                plan.widths.push_back({dt, {}, {}, channel(reg, device, dt)});
            StepWidth &width = plan.widths[l.width];
            for (const core::ScheduledGate &sg : layer.gates) {
                const pulse::PulseGate kind = pulseGateOf(sg.gate);
                const int k = pulseKindIndex(kind);
                const PulseProgram &program = library.get(kind);
                const int q0 = sg.gate.qubits[0];
                const int q1 = sg.gate.isTwoQubit() ? sg.gate.qubits[1] : -1;
                l.busy |=
                    (uint64_t(1) << q0) | (q1 >= 0 ? uint64_t(1) << q1 : 0);
                plan.jobs.push_back({k, q0, q1, 0.0});
                // All jobs of a kind share one program, so they share
                // the propagators.
                if (q1 < 0)
                    resolve(width.u1[k], program, dt, l.steps, drive1QStep);
                else
                    resolve(width.u2[k], program, dt, l.steps, drive2QStep);
            }
        }
        l.last = plan.jobs.size();
        plan.layers.push_back(l);
    }
    return plan;
}

/** Clocks of one step loop, one per kernel class.  Only the first
 *  and the last step, every kTimedStride-th step between them and the
 *  closing scale pass read them; a timed middle step counts for the
 *  middle steps it stands for. */
struct StepTimers
{
    explicit StepTimers(bool on) : on(on) {}

    /** Time step @p s of @p steps if it is sampled. */
    void
    step(size_t s, size_t steps)
    {
        double w = 0.0;
        if (on && (s == 0 || s + 1 == steps))
            w = 1.0;
        else if (on && (s - 1) % kTimedStride == 0)
            w = double(steps - 2) / double((steps - 3) / kTimedStride + 1);
        phase.weight = gate.weight = decoh.weight = w;
    }

    bool on;
    KernelTimer phase, gate, decoh;
};

/** The per-entry tables one part's step loop multiplies by, each with
 *  one entry per entry of the part.  @c half is the ZZ half-step and
 *  @c full the full step of merged steps.  With a Kraus channel,
 *  @c scale is its entrywise part S and @c lead = half * S, the
 *  leading multiply of every step after the first. */
struct StepTables
{
    std::span<const cplx> half, full, lead, scale;
};

/**
 * The Strang step loop of one layer on one part: a state-vector
 * sub-register or a density-matrix XorClass, with @p tab its tables.
 * Phases are diagonal, so without a channel between steps the
 * trailing ZZ half-step of step s and the leading one of step s+1
 * merge into one full-step sweep: steps+1 phase applications instead
 * of 2*steps.  A Kraus channel D = S T keeps the halves apart.  Its
 * transfers T run after every trailing half-step.  Its entrywise
 * scale S is diagonal, so it commutes with the ZZ phase and with the
 * transfers of the other qubits: it rides the next step's leading
 * multiply (@c lead), and one S pass closes the layer.
 */
template <bool Kraus, class Part>
void
runSteps(Part &part, const StepTables &tab, const StepWidth &w,
         size_t steps, std::span<const StepJob> jobs,
         const std::vector<int> &local, StepTimers &t)
{
    constexpr bool merge = !Kraus;
    const auto multiply = [&](KernelTimer &timer, std::span<const cplx> p) {
        timer.start();
        multiplyEntries(part.entries(), p);
        timer.stop();
    };

    for (size_t s = 0; s < steps; ++s) {
        t.step(s, steps);
        if (s == 0 || !merge)
            multiply(t.phase, s == 0 ? tab.half : tab.lead);
        t.gate.start();
        for (const StepJob &j : jobs) {
            const size_t k = size_t(j.kind);
            if (s < w.u1[k].size())
                part.apply1Q(w.u1[k][s], local[size_t(j.q0)]);
            else if (s < w.u2[k].size())
                part.apply2Q(w.u2[k][s], local[size_t(j.q0)],
                             local[size_t(j.q1)]);
        }
        t.gate.stop();
        multiply(t.phase, merge && s + 1 < steps ? tab.full : tab.half);
        if constexpr (Kraus) {
            t.decoh.start();
            part.transferPopulations(w.channel->gamma);
            t.decoh.stop();
        }
    }
    if constexpr (Kraus) {
        t.decoh.weight = t.on ? 1.0 : 0.0;
        multiply(t.decoh, tab.scale);
    }
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

/** The idle qubits a segment splits on. */
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
};

/** The split of an n-qubit register on the @p m qubits @p idle. */
Split
splitOn(int *idle, int m, int n)
{
    Split s;
    s.m = m;
    if (m == kMaxSplitQubits && idle[0] > idle[1])
        std::swap(idle[0], idle[1]);
    // idle[] now holds descending bit positions; pos[] ascends.
    s.local.assign(size_t(n), 0);
    for (int i = 0; i < m; ++i) {
        const int q = idle[m - 1 - i];
        s.pos[i] = n - 1 - q;
        s.local[size_t(q)] = -1 - i;
    }
    for (int q = 0, l = 0; q < n; ++q)
        if (s.local[size_t(q)] >= 0)
            s.local[size_t(q)] = l++;
    return s;
}

/** For every layer i and qubit q, next[i * n + q] is the first layer
 *  from i on whose pulses touch q (the layer count if none): one
 *  backwards scan. */
std::vector<size_t>
nextBusy(const std::vector<LayerPlan> &layers, int n)
{
    const size_t count = layers.size();
    const size_t nq = size_t(n);
    std::vector<size_t> next((count + 1) * nq, count);
    for (size_t i = count; i-- > 0;)
        for (size_t q = 0; q < nq; ++q)
            next[i * nq + q] =
                (layers[i].busy >> q) & 1 ? i : next[(i + 1) * nq + q];
    return next;
}

/**
 * The split of the segment that starts at layer @p first, and its end
 * @p last: the (up to) two qubits idle at @p first that stay idle
 * longest, earlier qubits first among equals, and the layer where the
 * first of them turns busy.  A layer with fewer idle qubits is a
 * segment on its own, so the next one can take more.
 */
Split
segmentAt(const std::vector<size_t> &next, int n, size_t first,
          size_t &last)
{
    const size_t *busy_at = next.data() + first * size_t(n);
    int idle[kMaxSplitQubits] = {};
    int m = 0;
    for (int q = 0; q < n; ++q) {
        if (busy_at[q] == first)
            continue;
        if (m == kMaxSplitQubits && busy_at[q] <= busy_at[idle[m - 1]])
            continue;
        idle[m < kMaxSplitQubits ? m++ : m - 1] = q;
        for (int i = m - 1; i > 0 && busy_at[idle[i]] > busy_at[idle[i - 1]];
             --i)
            std::swap(idle[i], idle[i - 1]);
    }
    last = first + 1;
    if (m == kMaxSplitQubits)
        last = std::min(busy_at[idle[0]], busy_at[idle[1]]);
    return splitOn(idle, m, n);
}

/**
 * Sub-register @p part of a state vector split on @p split: its
 * amplitudes and its slice of the ZZ energies, gathered once per
 * segment, with the phase vectors of the last step width it ran.  An
 * RZ on a split qubit is one phase for the whole part.  With m = 0 it
 * is the whole register.
 */
class SubVector : public StateVector
{
  public:
    SubVector(const StateVector &psi, const std::vector<double> &zz,
              const Split &split, size_t part)
        : StateVector(psi.numQubits() - split.m), split_(split),
          part_(part), energies_(dim())
    {
        const cplx *amps = psi.amplitudes().data();
        for (size_t l = 0; l < dim(); ++l) {
            const size_t k = spliceIndex(l, part, split.pos, split.m);
            amplitudes()[l] = amps[k];
            energies_[l] = zz[k];
        }
    }

    void
    scatter(StateVector &psi) const
    {
        cplx *amps = psi.amplitudes().data();
        for (size_t l = 0; l < dim(); ++l)
            amps[spliceIndex(l, part_, split_.pos, split_.m)] =
                amplitudes()[l];
    }

    std::span<cplx> entries() { return amplitudes(); }

    StepTables
    tables(const StepWidth &w)
    {
        if (w.dt != dt_) {
            half_ = phaseVector(energies_, w.dt / 2.0);
            full_ = phaseVector(energies_, w.dt);
            dt_ = w.dt;
        }
        return {half_, full_, {}, {}};
    }

    void
    applyRz(int l, double theta)
    {
        if (l >= 0) {
            StateVector::applyRz(l, theta);
            return;
        }
        // StateVector::applyRz's factor for the bit the part reads.
        const cplx p = (part_ >> (-1 - l)) & 1
                           ? std::exp(cplx{0.0, theta / 2.0})
                           : std::exp(cplx{0.0, -theta / 2.0});
        for (cplx &a : amplitudes())
            a *= p;
    }

  private:
    const Split &split_;
    size_t part_;
    std::vector<double> energies_;
    double dt_ = -1.0;
    la::CVector half_, full_;
};

/**
 * One XOR class of a density matrix split on m idle qubits: the
 * entries rho[r, c] whose split bits read a in r and a ^ x in c, for
 * all 2^m values of a.  It stores them as 2^m blocks of (n - m)
 * qubits, block a after block a - 1, so the class is one flat array
 * for the block kernels (sim/density_matrix.h).  A segment that leaves
 * the split qubits idle keeps r ^ c fixed on them in every operation
 * (docs/performance.md), so a class runs the whole segment alone.
 * With m = 0 the one class is the whole matrix.  It offers runSteps()
 * the register interface, with the tables of the last step width it
 * ran.
 */
class XorClass
{
  public:
    XorClass(const DensityMatrix &rho, const std::vector<double> &zz,
             const Split &split, size_t x)
        : split_(split), zz_(zz), x_(x), d_(rho.dim()),
          cols_(d_ >> split.m), index_(2 * d_), entries_(d_ * cols_)
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

    /** The tables of step width @p w, in one buffer: half and full on
     *  a coherent device, half, lead and scale with a Kraus channel. */
    StepTables
    tables(const StepWidth &w)
    {
        if (w.dt == dt_)
            return tab_;
        dt_ = w.dt;
        const size_t size = entries_.size();
        tables_.resize((w.channel ? 3 : 2) * size);
        const auto table = [&](size_t t) {
            return std::span<cplx>(tables_).subspan(t * size, size);
        };
        phaseTable(table(0), cols_, rows(), columns(),
                   phaseVector(zz_, w.dt / 2.0));
        if (!w.channel) {
            phaseTable(table(1), cols_, rows(), columns(),
                       phaseVector(zz_, w.dt));
            return tab_ = {table(0), table(1), {}, {}};
        }
        scaleTable(table(2), cols_, rows(), columns(), w.channel->gamma,
                   w.channel->keep);
        std::ranges::copy(table(0), table(1).begin());
        multiplyEntries(table(1), table(2));
        return tab_ = {table(0), {}, table(1), table(2)};
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

    /** DensityMatrix::applyRz on the class: an entry whose row and
     *  column differ on the qubit takes exp(-i theta), or its
     *  conjugate when the row reads 1.  On split qubit i the entries
     *  of a block share both bits, so a block takes one factor, in a
     *  class whose x reads 1 there. */
    void
    applyRz(int l, double theta)
    {
        const cplx phase = std::exp(cplx{0.0, -theta});
        const size_t block = cols_ * cols_;
        if (l < 0) {
            const size_t bit = size_t(1) << (-1 - l);
            if (!(x_ & bit))
                return;
            for (size_t i = 0; i < entries_.size(); ++i)
                entries_[i] *= (i / block & bit) ? std::conj(phase) : phase;
            return;
        }
        const size_t s = stride(l);
        for (size_t i = 0; i < entries_.size(); ++i) {
            const bool rb = (i / cols_) & s, cb = i & s;
            if (rb != cb)
                entries_[i] *= rb ? std::conj(phase) : phase;
        }
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
    const std::vector<double> &zz_;
    size_t x_;
    size_t d_;
    size_t cols_;
    /** The full-register row of every class row, then the
     *  full-register column of every column of every block. */
    std::vector<size_t> index_;
    std::vector<cplx> entries_;
    double dt_ = -1.0;
    std::vector<cplx> tables_;
    StepTables tab_;

    size_t stride(int q) const { return cols_ >> (q + 1); }

    std::span<const size_t> rows() const { return {index_.data(), d_}; }
    std::span<const size_t> columns() const
    {
        return {index_.data() + d_, d_};
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

/** The part type of each register. */
template <class Reg>
using PartOf =
    std::conditional_t<std::is_same_v<Reg, StateVector>, SubVector, XorClass>;

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
}

/** Kernel-class wall times of one physical layer in one part (ns). */
struct LayerTimes
{
    double phase = 0.0, gate = 0.0, decoh = 0.0;
};

/** Wall time of one part over its segment, and the share of it
 *  outside the step loops (ns). */
struct PartTimes
{
    double wall = 0.0, setup = 0.0;
};

/**
 * Layers [first, last) of @p plan on part @p part of @p reg: gather
 * once, every layer in order (an RZ as a sweep over the part or one
 * factor per part or block, a physical layer as its step loop with
 * the part's tables of its step width), scatter once, with every
 * qubit remapped by split.local.  With telemetry on it fills
 * @p times, one entry per layer of the segment.
 */
template <bool Kraus, class Reg>
PartTimes
runPart(Reg &reg, const std::vector<double> &zz, const RunPlan &plan,
        size_t first, size_t last, const Split &split, size_t part, bool tm,
        LayerTimes *times)
{
    const Clock::time_point t0 = tm ? Clock::now() : Clock::time_point{};
    double loops = 0.0;
    PartOf<Reg> p(reg, zz, split, part);
    for (size_t i = first; i < last; ++i) {
        const LayerPlan &l = plan.layers[i];
        const std::span<const StepJob> js =
            std::span(plan.jobs).subspan(l.first, l.last - l.first);
        if (l.steps == 0) {
            for (const StepJob &j : js)
                p.applyRz(split.local[size_t(j.q0)], j.theta);
            continue;
        }
        const StepWidth &w = plan.widths[l.width];
        const StepTables tab = p.tables(w);
        const Clock::time_point t1 = tm ? Clock::now() : Clock::time_point{};
        StepTimers t(tm);
        runSteps<Kraus>(p, tab, w, l.steps, js, split.local, t);
        if (tm) {
            loops += nsSince(t1);
            times[i - first] = {t.phase.ns(), t.gate.ns(), t.decoh.ns()};
        }
    }
    p.scatter(reg);
    if (!tm)
        return {};
    const double wall = nsSince(t0);
    return {wall, wall - loops};
}

/**
 * The whole schedule on either register, one segment at a time.  From
 * kMinSplitEntries stored entries on, each segment splits on its idle
 * qubits into 2^m parts — sub-registers of a state vector, XOR classes
 * of a density matrix — that each run every layer of the segment in
 * one common::parallelFor() block, with no barrier.  A smaller
 * register runs the whole schedule as one part, on the calling thread.
 */
template <bool Kraus, class Reg>
void
integrate(Reg &reg, const std::vector<double> &zz, const RunPlan &plan,
          const SimMetrics &metrics)
{
    const int n = reg.numQubits();
    const size_t count = plan.layers.size();
    const bool splits = storedEntries(reg) >= kMinSplitEntries;
    const std::vector<size_t> next =
        splits ? nextBusy(plan.layers, n) : std::vector<size_t>{};
    const bool tm = metrics.enabled();
    std::vector<LayerTimes> times;
    for (size_t first = 0, last = count; first < count; first = last) {
        last = count;
        const Split split = splits ? segmentAt(next, n, first, last)
                                   : splitOn(nullptr, 0, n);
        const size_t parts = size_t(1) << split.m;
        const size_t layers = last - first;
        if (tm)
            times.assign(parts * layers, {});
        PartTimes part_times[1 << kMaxSplitQubits] = {};
        const Clock::time_point t0 = tm ? Clock::now() : Clock::time_point{};
        const auto run = [&](size_t part) {
            part_times[part] =
                runPart<Kraus>(reg, zz, plan, first, last, split, part, tm,
                               tm ? times.data() + part * layers : nullptr);
        };
        if (split.m == 0)
            run(0);
        else
            common::parallelFor(0, parts, 1, [&](size_t lo, size_t hi) {
                for (size_t part = lo; part < hi; ++part)
                    run(part);
            });
        if (!tm)
            continue;

        // Parts run side by side, so the mean over them is the wall
        // time of each layer's kernel classes, and of the setup.
        const double wall = nsSince(t0);
        PartTimes mean;
        for (size_t part = 0; part < parts; ++part) {
            mean.wall += part_times[part].wall / double(parts);
            mean.setup += part_times[part].setup / double(parts);
        }
        metrics.setup_ns->observe(mean.setup);
        metrics.wait_ns->observe(wall - mean.wall);
        for (size_t i = first; i < last; ++i) {
            if (plan.layers[i].steps == 0)
                continue;
            LayerTimes sum;
            for (size_t part = 0; part < parts; ++part) {
                const LayerTimes &t = times[part * layers + i - first];
                sum.phase += t.phase;
                sum.gate += t.gate;
                sum.decoh += t.decoh;
            }
            metrics.layers->inc();
            metrics.steps->inc(plan.layers[i].steps);
            metrics.phase_ns->observe(sum.phase / double(parts));
            metrics.gate_ns->observe(sum.gate / double(parts));
            if (Kraus)
                metrics.decoh_ns->observe(sum.decoh / double(parts));
        }
    }
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
ScheduleSimulator<Reg>::run(const core::Schedule &schedule, Reg &reg) const
{
    require(schedule.num_qubits == device_.numQubits(),
            "ScheduleSimulator::run: schedule/device mismatch");
    const RunPlan plan =
        planRun(schedule, library_, device_, options_.dt, reg);
    // The channel is a property of the device, so every step width of
    // a density matrix has one or none.
    if constexpr (std::is_same_v<Reg, DensityMatrix>)
        if (!plan.widths.empty() && plan.widths.front().channel)
            return integrate<true>(reg, zz_energies_, plan, metrics_);
    integrate<false>(reg, zz_energies_, plan, metrics_);
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
