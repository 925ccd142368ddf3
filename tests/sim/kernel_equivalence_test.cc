/**
 * @file
 * Optimized-kernel vs scalar-reference equivalence suite.
 *
 * The fused density-matrix kernels, the memoized step propagators,
 * and the phase-vector sweeps are performance rewrites that must not
 * move physics: every test here pins an optimized path against the
 * retained scalar reference on randomized states, across register
 * sizes that cover both the serial (n < 8) and the pool-split
 * (n >= 8) kernels.  The state-vector simulator's idle-qubit
 * sub-register split (n >= 9) is also pinned to the same run made
 * serially.  Runs under ASan and TSan in CI (label unit-service), so
 * the shared-pool splits are raced deliberately.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/par_sched.h"
#include "core/zzx_sched.h"
#include "graph/topologies.h"
#include "linalg/expm.h"
#include "sim/density_matrix.h"
#include "sim/drive_step.h"
#include "sim/lindblad.h"
#include "sim/pulse_sim.h"

namespace qzz::sim {
namespace {

using la::CMatrix;
using la::cplx;

CMatrix
randomMatrix(Rng &rng, size_t n)
{
    CMatrix m(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            m(r, c) = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return m;
}

/** A random unitary via the propagator of a random Hermitian. */
CMatrix
randomUnitary(Rng &rng, size_t n)
{
    CMatrix h = randomMatrix(rng, n);
    h = h + h.dagger();
    return la::expmPropagator(h, 0.37);
}

DensityMatrix
randomState(Rng &rng, int n)
{
    // A random mixed state: conjugate a random diagonal by a random
    // unitary-ish matrix; normalization is irrelevant for kernel
    // equivalence, only the element values matter.
    DensityMatrix dm(n);
    CMatrix &rho = dm.matrix();
    rho = randomMatrix(rng, dm.dim());
    rho = rho * rho.dagger(); // Hermitian positive
    rho *= cplx{1.0 / rho.trace().real(), 0.0}; // unit trace, like a real rho
    return dm;
}

double
maxAbsDiff(const CMatrix &a, const CMatrix &b)
{
    double worst = 0.0;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    return worst;
}

TEST(KernelEquivalence, Fused1QMatchesScalarAcrossSizes)
{
    Rng rng(11);
    for (int n = 2; n <= 8; ++n) {
        const CMatrix u = randomUnitary(rng, 2);
        for (int q = 0; q < n; ++q) {
            DensityMatrix a = randomState(rng, n);
            DensityMatrix b = a;
            a.apply1Q(u, q);
            b.apply1QScalar(u, q);
            EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-14)
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(KernelEquivalence, Fused2QMatchesScalarAcrossPairs)
{
    Rng rng(12);
    for (int n = 2; n <= 8; ++n) {
        const CMatrix u = randomUnitary(rng, 4);
        for (int qa = 0; qa < n; ++qa)
            for (int qb = 0; qb < n; ++qb) {
                if (qa == qb)
                    continue;
                DensityMatrix a = randomState(rng, n);
                DensityMatrix b = a;
                a.apply2Q(u, qa, qb);
                b.apply2QScalar(u, qa, qb);
                EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-14)
                    << "n=" << n << " pair=(" << qa << "," << qb << ")";
            }
    }
}

TEST(KernelEquivalence, FusedDecoherenceMatchesSequentialChannels)
{
    Rng rng(13);
    for (int n = 2; n <= 8; ++n) {
        std::vector<double> gamma(size_t(n), 0.0);
        std::vector<double> keep(size_t(n), 1.0);
        for (int q = 0; q < n; ++q) {
            // Mix lossy, dephasing-only, damping-only, and coherent
            // qubits so every fused-branch combination is exercised.
            switch (q % 4) {
            case 0:
                gamma[size_t(q)] = rng.uniform(0.0, 0.2);
                keep[size_t(q)] = rng.uniform(0.8, 1.0);
                break;
            case 1:
                gamma[size_t(q)] = 0.0;
                keep[size_t(q)] = rng.uniform(0.8, 1.0);
                break;
            case 2:
                gamma[size_t(q)] = rng.uniform(0.0, 0.2);
                keep[size_t(q)] = 1.0;
                break;
            default:
                gamma[size_t(q)] = 0.0;
                keep[size_t(q)] = 1.0;
                break;
            }
        }
        DensityMatrix a = randomState(rng, n);
        DensityMatrix b = a;
        a.applyDecoherence(gamma, keep);
        b.applyDecoherenceScalar(gamma, keep);
        EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-14) << "n=" << n;
    }
}

TEST(KernelEquivalence, PhaseVectorMatchesDiagonalPhase)
{
    Rng rng(14);
    for (int n = 2; n <= 8; ++n) {
        std::vector<double> energies(size_t(1) << n);
        for (double &e : energies)
            e = rng.uniform(-5.0, 5.0);
        const double dt = 0.087;
        DensityMatrix a = randomState(rng, n);
        DensityMatrix b = a;
        a.applyPhaseVector(phaseVector(energies, dt));
        b.applyDiagonalPhase(energies, dt);
        // Not bit-identical (different trig evaluation), but the
        // phases agree to ~1 ulp per element.
        EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-13) << "n=" << n;
    }
}

TEST(KernelEquivalence, StateVectorPhaseVectorMatchesDiagonalPhase)
{
    Rng rng(15);
    const int n = 6;
    std::vector<double> energies(size_t(1) << n);
    for (double &e : energies)
        e = rng.uniform(-5.0, 5.0);
    StateVector a(n), b(n);
    for (size_t k = 0; k < a.dim(); ++k)
        a.amplitudes()[k] = b.amplitudes()[k] =
            cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const double dt = 0.059;
    a.applyPhaseVector(phaseVector(energies, dt));
    b.applyDiagonalPhase(energies, dt);
    for (size_t k = 0; k < a.dim(); ++k)
        EXPECT_LE(std::abs(a.amplitudes()[k] - b.amplitudes()[k]), 1e-13);
}

TEST(KernelEquivalence, FixedSizePropagatorMatchesHeapExpm)
{
    Rng rng(16);
    for (int trial = 0; trial < 20; ++trial) {
        CMatrix h = randomMatrix(rng, 4);
        h = h + h.dagger();
        // Cover both the unscaled and the scaled-and-squared branch.
        const double t = trial % 2 == 0 ? 0.05 : 9.0;
        const CMatrix want = la::expmPropagator(h, t);
        la::Mat4 got;
        la::expmPropagator4(la::toMat4(h), t, got);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_LE(std::abs(got[i] - want(i / 4, i % 4)), 1e-13);
    }
}

TEST(KernelEquivalence, MemoizedPropagatorsMatchDirectComputation)
{
    const pulse::PulseLibrary lib = pulse::PulseLibrary::gaussian();
    const double dt = 0.1;
    StepPropagatorMemo memo;
    const auto &sx = lib.get(pulse::PulseGate::SX);
    const auto &rzx = lib.get(pulse::PulseGate::RZX);
    for (size_t s = 0; s < 40; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        la::Mat2 m2;
        drive1QStep(sx, t_mid, dt, m2);
        const la::Mat2 &c2 = memo.get1Q(sx, pulse::PulseGate::SX, s, dt);
        for (size_t i = 0; i < 4; ++i)
            EXPECT_EQ(m2[i], c2[i]);
        la::Mat4 m4;
        drive2QStep(rzx, t_mid, dt, m4);
        const la::Mat4 &c4 = memo.get2Q(rzx, pulse::PulseGate::RZX, s, dt);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_EQ(m4[i], c4[i]);
    }
    // The second pass over the same steps must hit the cache.
    const auto misses = memo.misses();
    (void)memo.get1Q(sx, pulse::PulseGate::SX, 7, dt);
    (void)memo.get2Q(rzx, pulse::PulseGate::RZX, 7, dt);
    EXPECT_EQ(memo.misses(), misses);
    // A different dt invalidates.
    (void)memo.get1Q(sx, pulse::PulseGate::SX, 7, dt / 2.0);
    EXPECT_EQ(memo.misses(), misses + 1);
}

dev::Device
gridDevice(int rows, int cols, uint64_t seed = 7)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(rows, cols),
                       dev::DeviceParams{}, rng);
}

core::Schedule
fig23StyleSchedule(const dev::Device &dev, int n)
{
    ckt::QuantumCircuit c(n);
    for (int rep = 0; rep < 3; ++rep) {
        for (int q = 0; q < n; ++q)
            c.sx(q);
        c.rzx(0, 1, kPi / 2.0);
        if (n >= 4)
            c.rzx(2, 3, kPi / 2.0);
    }
    return core::parSchedule(c, dev, core::GateDurations{});
}

TEST(KernelEquivalence, DensitySimulatorMatchesScalarReferencePath)
{
    const auto dev = gridDevice(2, 3);
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();

    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    DensityMatrix a =
        DensityMatrixScheduleSimulator(dev, lib, fast).run(sched);
    DensityMatrix b =
        DensityMatrixScheduleSimulator(dev, lib, ref).run(sched);
    // Memoized propagators are exact; only the phase sweeps differ at
    // the last ulp per step, so the paths track each other to ~1e-12
    // over a thousand steps.
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-11);
    EXPECT_NEAR(a.trace(), 1.0, 1e-9);
}

TEST(KernelEquivalence, StateVectorSimulatorMatchesScalarReferencePath)
{
    const auto dev = gridDevice(2, 3);
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();

    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    StateVector a = PulseScheduleSimulator(dev, lib, fast).run(sched);
    StateVector b = PulseScheduleSimulator(dev, lib, ref).run(sched);
    EXPECT_GT(a.fidelity(b), 1.0 - 1e-10);
    for (size_t k = 0; k < a.dim(); ++k)
        EXPECT_LE(std::abs(a.amplitudes()[k] - b.amplitudes()[k]), 1e-10);
}

TEST(KernelEquivalence, DecoherentSimulatorGoldenFidelity)
{
    // Fig. 23-style golden: a lossy device run through both paths
    // must land on the same |00..0> fidelity.  Guards the fused
    // decoherence + unmerged half-step branch end to end.
    graph::Topology topo = graph::gridTopology(2, 2);
    dev::DeviceParams params;
    Rng rng(4);
    dev::Calibration calib = dev::Calibration::sampled(topo, params, rng);
    for (int q = 0; q < 4; ++q) {
        calib.t1[size_t(q)] = 5000.0;
        calib.t2[size_t(q)] = 3000.0;
    }
    const dev::Device dev(topo, calib);
    const auto sched = fig23StyleSchedule(dev, 4);
    const auto lib = pulse::PulseLibrary::gaussian();

    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    DensityMatrix a =
        DensityMatrixScheduleSimulator(dev, lib, fast).run(sched);
    DensityMatrix b =
        DensityMatrixScheduleSimulator(dev, lib, ref).run(sched);
    StateVector zero(4);
    EXPECT_NEAR(a.expectationPure(zero), b.expectationPure(zero), 1e-10);
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-11);
}

TEST(KernelEquivalence, PoolSplitKernelsMatchAtEightQubits)
{
    // n = 8 crosses the parallelFor threshold (dim 256): the fused
    // kernels split across the shared pool.  Equivalence here plus
    // the TSan CI leg checks both correctness and data-race freedom
    // of the block partitioning.
    Rng rng(17);
    const int n = 8;
    const CMatrix u2 = randomUnitary(rng, 2);
    const CMatrix u4 = randomUnitary(rng, 4);
    DensityMatrix a = randomState(rng, n);
    DensityMatrix b = a;

    a.apply1Q(u2, 3);
    b.apply1QScalar(u2, 3);
    a.apply2Q(u4, 1, 6);
    b.apply2QScalar(u4, 1, 6);
    std::vector<double> gamma(size_t(n), 0.01), keep(size_t(n), 0.995);
    a.applyDecoherence(gamma, keep);
    b.applyDecoherenceScalar(gamma, keep);
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-13);
}

/** A physical layer of SX gates on @p sx, identities on @p id and
 *  RZX(pi/2) on the ordered pairs @p rzx, lasting @p duration ns.
 *  The pulses last 20 ns, so in a longer layer they end mid-layer. */
core::Layer
physicalLayer(const std::vector<int> &sx, const std::vector<int> &id,
              const std::vector<std::array<int, 2>> &rzx, double duration)
{
    core::Layer l;
    l.duration = duration;
    for (int q : sx)
        l.gates.push_back({ckt::Gate(ckt::GateKind::SX, {q})});
    for (int q : id)
        l.gates.push_back({ckt::Gate(ckt::GateKind::I, {q})});
    for (const auto &p : rzx)
        l.gates.push_back(
            {ckt::Gate(ckt::GateKind::RZX, {p[0], p[1]}, {kPi / 2.0})});
    return l;
}

std::vector<int>
qubitRange(int lo, int hi)
{
    std::vector<int> q;
    for (int i = lo; i < hi; ++i)
        q.push_back(i);
    return q;
}

/**
 * Layers covering every split case of an n >= 9 register (qubit 0 is
 * the top bit): no idle qubit, one idle at the lowest bit, idle top
 * bits, exactly two idle qubits straddled by RZX jobs in both qubit
 * orders, idle qubits at both ends, a lone job, and a virtual layer.
 */
core::Schedule
splitCaseSchedule(int n)
{
    core::Schedule s;
    s.num_qubits = n;
    // 0 idle.
    s.layers.push_back(
        physicalLayer(qubitRange(2, n - 2), {}, {{0, 1}, {n - 1, n - 2}},
                      20.0));
    // 1 idle: qubit n-1, the lowest bit.
    std::vector<int> sx = qubitRange(3, n - 1);
    sx.push_back(0);
    s.layers.push_back(physicalLayer(sx, {}, {{2, 1}}, 30.0));
    // Idle {0, 1, n-2, n-1}: the split takes the top bits.
    s.layers.push_back(
        physicalLayer(qubitRange(4, n - 2), {}, {{2, 3}}, 25.0));
    // Idle {1, 5} only; RZX(0,4) and RZX(6,2) cross the split bits.
    s.layers.push_back(
        physicalLayer(qubitRange(7, n), {3}, {{0, 4}, {6, 2}}, 30.0));
    core::Layer virt;
    virt.is_virtual = true;
    virt.gates.push_back({ckt::Gate(ckt::GateKind::RZ, {0}, {0.7})});
    virt.gates.push_back({ckt::Gate(ckt::GateKind::RZ, {n - 1}, {-1.1})});
    s.layers.push_back(virt);
    // Idle {0, n-1}: the split bits are the top and the lowest.
    s.layers.push_back(
        physicalLayer(qubitRange(3, n - 1), {}, {{1, 2}}, 20.0));
    // One job, everything else idle.
    s.layers.push_back(physicalLayer({n / 2}, {}, {}, 30.0));
    return s;
}

StateVector
randomPureState(Rng &rng, int n)
{
    StateVector psi(n);
    double norm2 = 0.0;
    for (cplx &a : psi.amplitudes()) {
        a = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        norm2 += std::norm(a);
    }
    for (cplx &a : psi.amplitudes())
        a /= std::sqrt(norm2);
    return psi;
}

TEST(KernelEquivalence, IdleQubitSplitIsThreadCountInvariant)
{
    // Run from the top level, the split layers fan their
    // sub-registers out across the pool; run from inside a
    // parallelFor() block, the nested fan-out runs inline, one
    // sub-register after another on one thread.  The amplitudes must
    // agree to the bit, and track the unsplit scalar reference.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (auto [rows, cols] : {std::pair{3, 3}, std::pair{3, 4}}) {
        const int n = rows * cols;
        const auto dev = gridDevice(rows, cols);
        const core::Schedule sched = splitCaseSchedule(n);
        PulseSimOptions fast;
        fast.dt = 0.5;
        PulseSimOptions ref = fast;
        ref.scalar_reference = true;
        const PulseScheduleSimulator sim(dev, lib, fast);

        Rng rng{uint64_t(n)};
        const StateVector psi0 = randomPureState(rng, n);
        StateVector pooled = psi0;
        sim.run(sched, pooled);
        // Two blocks, so the call dispatches to the pool and each
        // block's own run is nested.
        std::vector<StateVector> serial(2, psi0);
        common::parallelFor(0, 2, 1, [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                sim.run(sched, serial[i]);
        });
        StateVector scalar = psi0;
        PulseScheduleSimulator(dev, lib, ref).run(sched, scalar);

        double worst = 0.0;
        for (size_t k = 0; k < pooled.dim(); ++k) {
            const cplx a = pooled.amplitudes()[k];
            ASSERT_EQ(a, serial[0].amplitudes()[k]) << "n=" << n << " k=" << k;
            ASSERT_EQ(a, serial[1].amplitudes()[k]) << "n=" << n << " k=" << k;
            worst = std::max(worst, std::abs(a - scalar.amplitudes()[k]));
        }
        EXPECT_LE(worst, 1e-10) << "n=" << n;
        EXPECT_NEAR(pooled.norm(), 1.0, 1e-9) << "n=" << n;
        // The schedule did move the state.
        EXPECT_LT(pooled.fidelity(psi0), 0.99) << "n=" << n;
    }
}

TEST(KernelEquivalence, IdleQubitSplitMatchesScalarOnCompiledSchedules)
{
    // The schedulers' own layers at n = 12, under both policies: a
    // ParSched layer leaves gate-free qubits idle, a ZZXSched layer
    // puts no pulse on its suppressed side.
    const auto dev = gridDevice(3, 4, 11);
    const auto lib = pulse::PulseLibrary::gaussian();
    const int n = 12;
    ckt::QuantumCircuit c(n);
    Rng rng(5);
    for (int rep = 0; rep < 3; ++rep) {
        for (int q = 0; q < n; ++q)
            if (rng.uniform(0.0, 1.0) < 0.5)
                c.sx(q);
        for (const graph::Edge &e : dev.graph().edges())
            if (rng.uniform(0.0, 1.0) < 0.2)
                c.rzx(e.u, e.v, kPi / 2.0);
    }
    PulseSimOptions fast;
    fast.dt = 0.5;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;
    for (const core::Schedule &sched :
         {core::parSchedule(c, dev, core::GateDurations{}),
          core::zzxSchedule(c, dev, core::GateDurations{})}) {
        const StateVector a =
            PulseScheduleSimulator(dev, lib, fast).run(sched);
        const StateVector b =
            PulseScheduleSimulator(dev, lib, ref).run(sched);
        for (size_t k = 0; k < a.dim(); ++k)
            ASSERT_LE(std::abs(a.amplitudes()[k] - b.amplitudes()[k]),
                      1e-10)
                << "k=" << k;
    }
}

} // namespace
} // namespace qzz::sim
