#include "sim/pulse_sim.h"

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "common/units.h"
#include "core/par_sched.h"
#include "core/sched_walk.h"
#include "graph/topologies.h"
#include "sim/ideal_sim.h"
#include "sim/lindblad.h"

namespace qzz::sim {
namespace {

dev::Device
device(int rows, int cols, uint64_t seed = 7)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(rows, cols),
                       dev::DeviceParams{}, rng);
}

core::Schedule
scheduleOf(const ckt::QuantumCircuit &c, const dev::Device &d)
{
    return core::parSchedule(c, d, core::GateDurations{});
}

TEST(PulseSimTest, NoCrosstalkReproducesIdealGates)
{
    // With couplings switched off the Gaussian pulses implement the
    // native gates almost exactly.
    auto dev = device(2, 2);
    ckt::QuantumCircuit c(4);
    c.sx(0);
    c.sx(1);
    c.rzx(0, 1, kPi / 2.0);
    c.sx(2);
    c.rzx(2, 3, kPi / 2.0);
    auto sched = scheduleOf(c, dev);

    PulseSimOptions opt;
    opt.crosstalk_scale = 0.0;
    PulseScheduleSimulator sim(
        dev, pulse::PulseLibrary::gaussian(), opt);
    StateVector actual = sim.run(sched);
    StateVector ideal = runIdealSchedule(sched);
    EXPECT_GT(ideal.fidelity(actual), 1.0 - 1e-6);
}

TEST(PulseSimTest, CrosstalkDegradesFidelity)
{
    auto dev = device(2, 2);
    ckt::QuantumCircuit c(4);
    for (int q = 0; q < 4; ++q)
        c.sx(q);
    for (int rep = 0; rep < 5; ++rep)
        for (int q = 0; q < 4; ++q)
            c.sx(q);
    auto sched = scheduleOf(c, dev);

    PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian());
    StateVector actual = sim.run(sched);
    StateVector ideal = runIdealSchedule(sched);
    EXPECT_LT(ideal.fidelity(actual), 1.0 - 1e-4);
}

TEST(PulseSimTest, IdleEvolutionIsPureZzPhases)
{
    // A schedule with one idle layer (identity on one qubit) lets ZZ
    // act; starting in |00> only phases accrue, fidelity stays 1 for
    // the diagonal bath.
    auto dev = device(1, 2);
    ckt::QuantumCircuit c(2);
    c.idle(0);
    auto sched = scheduleOf(c, dev);
    PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian());
    StateVector out = sim.run(sched);
    EXPECT_NEAR(std::abs(out.amplitudes()[0]), 1.0, 1e-7);
}

TEST(PulseSimTest, RamseyStyleZzPhaseMatchesTheory)
{
    // |+>(x)|1| under H = lambda sz sz for time T acquires a relative
    // phase 2 lambda T on the superposed qubit.
    Rng rng(3);
    dev::DeviceParams params;
    auto topo = graph::lineTopology(2);
    const double lambda = khz(200.0);
    dev::Device dev(topo, params, std::vector<double>{lambda});

    ckt::QuantumCircuit c(2);
    c.idle(1); // 20 ns idle layer; qubit 0 untouched
    auto sched = scheduleOf(c, dev);
    // Prepare |+> on 0 and |1> on 1 by hand.
    StateVector psi(2);
    psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::X, {0}})), 1);

    PulseSimOptions opt;
    opt.dt = 0.01;
    // Identity pulse on qubit 1 rotates it; to isolate the ZZ phase,
    // drop the pulse and keep a bare idle layer instead.
    core::Schedule idle_sched;
    idle_sched.num_qubits = 2;
    core::Layer layer;
    layer.duration = 20.0;
    idle_sched.layers.push_back(layer);

    PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian(),
                               opt);
    sim.run(idle_sched, psi);

    // Expected relative phase on qubit 0: exp(-i*(E0-E1)*T) with
    // E0 = -lambda (|01>), E1 = +lambda (|11>), so delta = 2 lambda T.
    const auto &a = psi.amplitudes();
    const double phase =
        std::arg(a[1] / a[3]); // |01> vs |11>
    EXPECT_NEAR(std::remainder(phase - 2.0 * lambda * 20.0, kTwoPi),
                0.0, 1e-6);
}

TEST(PulseSimTest, VirtualLayersApplyExactly)
{
    auto dev = device(1, 2);
    ckt::QuantumCircuit c(2);
    c.sx(0);
    c.rz(0, 0.777);
    c.sx(0);
    auto sched = scheduleOf(c, dev);
    PulseSimOptions opt;
    opt.crosstalk_scale = 0.0;
    PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian(),
                               opt);
    StateVector actual = sim.run(sched);
    StateVector ideal = runIdealSchedule(sched);
    EXPECT_GT(ideal.fidelity(actual), 1.0 - 1e-6);
}

TEST(PulseSimTest, NormPreserved)
{
    auto dev = device(2, 3);
    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    c.rzx(0, 1, kPi / 2.0);
    c.rzx(4, 5, kPi / 2.0);
    auto sched = scheduleOf(c, dev);
    PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian());
    StateVector out = sim.run(sched);
    EXPECT_NEAR(out.norm(), 1.0, 1e-8);
}

TEST(PulseSimTest, HeterogeneousT1DecaysPerQubit)
{
    // A two-qubit device whose snapshot gives qubit 0 a short T1 and
    // leaves qubit 1 fully coherent: after an idle layer from |11>,
    // only qubit 0 loses population.
    graph::Topology topo = graph::lineTopology(2);
    dev::DeviceParams params;
    Rng rng(4);
    dev::Calibration calib =
        dev::Calibration::sampled(topo, params, rng);
    calib.t1[0] = 200.0; // ns, deliberately lossy
    calib.t2[0] = 200.0;
    const dev::Device dev(topo, calib);

    ckt::QuantumCircuit c(2);
    c.idle(0);
    c.idle(1);
    core::Schedule sched = scheduleOf(c, dev);

    PulseSimOptions opt;
    opt.dt = 0.1;
    opt.crosstalk_scale = 0.0;
    DensityMatrixScheduleSimulator sim(
        dev, pulse::PulseLibrary::gaussian(), opt);
    DensityMatrix rho(2);
    for (int q = 0; q < 2; ++q)
        rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::X, {0}})), q);
    sim.run(sched, rho);
    // Identity = Rx(2 pi) returns each qubit to |1> up to phase, but
    // qubit 0 decohered along the way.
    EXPECT_LT(rho.probabilityOne(0), 0.95);
    EXPECT_GT(rho.probabilityOne(1), 0.999);
}

TEST(PulseSimTest, ZzxScheduleRunsEndToEnd)
{
    auto dev = device(2, 3);
    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    auto sched =
        core::schedule(core::SchedPolicy::Zzx, c, dev, core::GateDurations{});
    PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian());
    StateVector actual = sim.run(sched);
    StateVector ideal = runIdealSchedule(sched);
    // Gaussian identities do not suppress ZZ, but the run must be
    // well-formed and near-normalized.
    EXPECT_NEAR(actual.norm(), 1.0, 1e-8);
    EXPECT_GT(ideal.fidelity(actual), 0.5);
}

} // namespace
} // namespace qzz::sim
