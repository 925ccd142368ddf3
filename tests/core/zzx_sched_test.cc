#include "core/sched_walk.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/decompose.h"
#include "common/error.h"
#include "circuit/router.h"
#include "common/units.h"
#include "core/par_sched.h"
#include "graph/topologies.h"
#include "sim/ideal_sim.h"

namespace qzz::core {
namespace {

dev::Device
gridDevice(int rows, int cols, uint64_t seed = 1)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(rows, cols),
                       dev::DeviceParams{}, rng);
}

/** Schedule invariants shared by all tests. */
void
checkInvariants(const Schedule &s, const ckt::QuantumCircuit &c,
                const dev::Device &dev)
{
    int total = 0;
    for (const Layer &l : s.layers) {
        std::vector<int> used(size_t(s.num_qubits), 0);
        for (const ScheduledGate &sg : l.gates) {
            if (!sg.supplemented)
                ++total;
            for (int q : sg.gate.qubits) {
                if (!sg.gate.isVirtual()) {
                    EXPECT_EQ(used[q], 0) << "qubit reused in layer";
                    used[q] = 1;
                }
            }
        }
        if (l.is_virtual)
            continue;
        // The driven set must equal the S side of the recorded cut.
        ASSERT_EQ(l.side.size(), size_t(s.num_qubits));
        for (int q = 0; q < s.num_qubits; ++q)
            EXPECT_EQ(used[q] != 0, l.side[q] == 1)
                << "driven set differs from cut side at qubit " << q;
        // Metrics are consistent with the side.
        SuppressionMetrics m = evaluateCut(dev.graph(), l.side);
        EXPECT_EQ(m.nc, l.metrics.nc);
        EXPECT_EQ(m.nq, l.metrics.nq);
    }
    EXPECT_EQ(total, int(c.size()));
}

TEST(ZzxSchedTest, SingleQubitLayerCompleteSuppression)
{
    // Single-qubit gates on every qubit of a bipartite grid: each
    // layer achieves NC = 0 (complete suppression).
    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    auto dev = gridDevice(2, 3);
    Schedule s = schedule(SchedPolicy::Zzx, c, dev, GateDurations{});
    checkInvariants(s, c, dev);
    for (const Layer &l : s.layers)
        if (!l.is_virtual) {
            EXPECT_EQ(l.metrics.nc, 0);
        }
    // Two checkerboard halves.
    EXPECT_EQ(s.physicalLayerCount(), 2);
}

TEST(ZzxSchedTest, IdentitySupplementationFillsS)
{
    ckt::QuantumCircuit c(6);
    c.sx(0); // lone gate
    auto dev = gridDevice(2, 3);
    Schedule s = schedule(SchedPolicy::Zzx, c, dev, GateDurations{});
    checkInvariants(s, c, dev);
    ASSERT_EQ(s.physicalLayerCount(), 1);
    const Layer &l = s.layers.front();
    // Qubit 0's checkerboard class has 3 members: 2 supplemented.
    int supplemented = 0;
    for (const ScheduledGate &sg : l.gates)
        if (sg.supplemented) {
            ++supplemented;
            EXPECT_EQ(sg.gate.kind, ckt::GateKind::I);
        }
    EXPECT_EQ(supplemented, 2);
    EXPECT_EQ(l.metrics.nc, 0);
}

TEST(ZzxSchedTest, RequirementBoundsHold)
{
    Rng rng(3);
    ckt::QuantumCircuit logical(9);
    logical.h(0);
    for (int q = 0; q + 1 < 9; ++q)
        logical.cx(q, q + 1);
    auto dev = gridDevice(3, 3);
    ckt::RoutedCircuit routed =
        ckt::routeCircuit(logical, dev.graph());
    ckt::QuantumCircuit native = ckt::decomposeToNative(routed.circuit);

    ZzxOptions opt = resolveZzxOptions({}, dev);
    Schedule s = schedule(SchedPolicy::Zzx, native, dev, GateDurations{}, opt);
    checkInvariants(s, native, dev);
    for (const Layer &l : s.layers) {
        if (l.is_virtual)
            continue;
        EXPECT_LE(l.metrics.nq, opt.nq_max);
        EXPECT_LE(l.metrics.nc, opt.nc_max);
    }
}

TEST(ZzxSchedTest, SemanticsMatchParSched)
{
    // Both schedulers must produce the same ideal output state.
    Rng rng(8);
    ckt::QuantumCircuit logical(6);
    logical.h(0);
    logical.cx(0, 1);
    logical.cx(2, 3);
    logical.cx(4, 5);
    logical.h(3);
    logical.cx(1, 2);
    auto dev = gridDevice(2, 3);
    ckt::QuantumCircuit native = ckt::decomposeToNative(
        ckt::routeCircuit(logical, dev.graph()).circuit);

    Schedule par = parSchedule(native, dev, GateDurations{});
    Schedule zzx = schedule(SchedPolicy::Zzx, native, dev, GateDurations{});
    sim::StateVector a = sim::runIdealSchedule(par);
    sim::StateVector b = sim::runIdealSchedule(zzx);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);
}

TEST(ZzxSchedTest, ExecutionTimeWithinTwoXOfParSched)
{
    // Fig. 24's headline: the parallelism sacrifice stays below ~2x.
    Rng rng(4);
    ckt::QuantumCircuit logical = [] {
        Rng r(12);
        ckt::QuantumCircuit c(9);
        for (int i = 0; i < 12; ++i) {
            int a = r.uniformInt(0, 8), b = r.uniformInt(0, 8);
            if (a != b)
                c.cx(a, b);
            c.h(r.uniformInt(0, 8));
        }
        return c;
    }();
    auto dev = gridDevice(3, 3);
    ckt::QuantumCircuit native = ckt::decomposeToNative(
        ckt::routeCircuit(logical, dev.graph()).circuit);
    Schedule par = parSchedule(native, dev, GateDurations{});
    Schedule zzx = schedule(SchedPolicy::Zzx, native, dev, GateDurations{});
    EXPECT_LE(zzx.executionTime(), 3.0 * par.executionTime());
    EXPECT_GE(zzx.executionTime(), par.executionTime() - 1e-9);
}

TEST(ZzxSchedTest, Theorem61ClosestGatesSplit)
{
    // Theorem 6.1: when simultaneous two-qubit gates are forced into
    // K layers, the top-K closest pairs end up in different layers.
    ckt::QuantumCircuit c(9);
    // Three parallel CNOTs as in Fig. 13.
    c.rzx(0, 3, kPi / 2.0);
    c.rzx(4, 1, kPi / 2.0);
    c.rzx(2, 5, kPi / 2.0);
    auto dev = gridDevice(3, 3);
    Schedule s = schedule(SchedPolicy::Zzx, c, dev, GateDurations{});
    // Find the layer index of each gate.
    auto layer_of = [&](int q0, int q1) {
        for (size_t i = 0; i < s.layers.size(); ++i)
            for (const ScheduledGate &sg : s.layers[i].gates)
                if (sg.gate.isTwoQubit() && sg.gate.qubits[0] == q0 &&
                    sg.gate.qubits[1] == q1)
                    return int(i);
        return -1;
    };
    const int l03 = layer_of(0, 3);
    const int l41 = layer_of(4, 1);
    ASSERT_NE(l03, -1);
    ASSERT_NE(l41, -1);
    // The two closest gates (distance 6) must not share a layer if
    // the schedule used more than one layer for the three gates.
    const int l25 = layer_of(2, 5);
    const int distinct =
        1 + (l41 != l03) + (l25 != l03 && l25 != l41);
    if (distinct > 1) {
        EXPECT_NE(l03, l41);
    }
}

TEST(ZzxSchedTest, VirtualGatesFlushInOrder)
{
    ckt::QuantumCircuit c(2);
    c.rz(0, 0.1);
    c.sx(0);
    c.rz(0, 0.2);
    c.sx(0);
    auto dev = gridDevice(1, 2);
    Schedule s = schedule(SchedPolicy::Zzx, c, dev, GateDurations{});
    // Order: virtual, physical, virtual, physical.
    std::vector<bool> kinds;
    for (const Layer &l : s.layers)
        kinds.push_back(l.is_virtual);
    EXPECT_EQ(kinds,
              (std::vector<bool>{true, false, true, false}));
}

TEST(ZzxSchedTest, DeterministicAcrossRuns)
{
    Rng rng(5);
    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    c.rzx(0, 1, kPi / 2.0);
    c.rzx(4, 5, kPi / 2.0);
    auto dev = gridDevice(2, 3);
    Schedule s1 = schedule(SchedPolicy::Zzx, c, dev, GateDurations{});
    Schedule s2 = schedule(SchedPolicy::Zzx, c, dev, GateDurations{});
    ASSERT_EQ(s1.layers.size(), s2.layers.size());
    for (size_t i = 0; i < s1.layers.size(); ++i)
        EXPECT_EQ(s1.layers[i].gates.size(), s2.layers[i].gates.size());
}

/** Layer-by-layer structural equality of two schedules. */
void
expectSameSchedule(const Schedule &a, const Schedule &b)
{
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const Layer &la = a.layers[i];
        const Layer &lb = b.layers[i];
        EXPECT_EQ(la.is_virtual, lb.is_virtual) << "layer " << i;
        EXPECT_EQ(la.side, lb.side) << "layer " << i;
        EXPECT_EQ(la.metrics.nc, lb.metrics.nc) << "layer " << i;
        EXPECT_EQ(la.metrics.nq, lb.metrics.nq) << "layer " << i;
        ASSERT_EQ(la.gates.size(), lb.gates.size()) << "layer " << i;
        for (size_t g = 0; g < la.gates.size(); ++g) {
            EXPECT_EQ(la.gates[g].gate.kind, lb.gates[g].gate.kind);
            EXPECT_EQ(la.gates[g].gate.qubits, lb.gates[g].gate.qubits);
            EXPECT_EQ(la.gates[g].supplemented, lb.gates[g].supplemented);
        }
    }
}

TEST(ZzxSchedTest, WeightedMatchesClassicOnUniformSnapshot)
{
    // Uniform snapshot: every per-edge weight normalizes to exactly
    // 1.0, the weighted objective degenerates to alpha * NQ + NC, and
    // the weighted search must reproduce classic ZZXSched decisions
    // bit-identically.  Triangulated grid so layers genuinely carry
    // NC > 0 and the objective is exercised.
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    const std::vector<double> couplings(size_t(topo.g.numEdges()),
                                        khz(200.0));
    const dev::Device dev(topo, dev::DeviceParams{}, couplings);

    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    c.rzx(0, 1, kPi / 2.0);
    c.rzx(4, 5, kPi / 2.0);
    for (int q = 0; q < 6; ++q)
        c.sx(q);

    const CutTables tables(dev, SchedPolicy::Zzx);
    const Schedule classic =
        schedule(SchedPolicy::Zzx, c, dev, GateDurations{}, {}, &tables);
    const Schedule weighted = schedule(SchedPolicy::ZzxWeighted, c, dev,
                                       GateDurations{}, {}, &tables);
    expectSameSchedule(classic, weighted);
}

TEST(ZzxSchedTest, WeightedSteersResidualOntoWeakCouplers)
{
    // One coupler 50x stronger than the rest on a non-bipartite
    // topology (complete suppression impossible): the weighted
    // objective must keep the strong edge suppressed and never leave
    // more calibrated residual than the classic uniform count.
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    std::vector<double> couplings(size_t(topo.g.numEdges()),
                                  khz(200.0));
    const size_t strong_edge = 3;
    couplings[strong_edge] = khz(10000.0);
    const dev::Device dev(topo, dev::DeviceParams{}, couplings);

    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);

    const CutTables tables(dev, SchedPolicy::Zzx);
    const Schedule classic =
        schedule(SchedPolicy::Zzx, c, dev, GateDurations{}, {}, &tables);
    const Schedule weighted = schedule(SchedPolicy::ZzxWeighted, c, dev,
                                       GateDurations{}, {}, &tables);
    checkInvariants(weighted, c, dev);

    EXPECT_LE(meanResidualZz(weighted, tables.zz),
              meanResidualZz(classic, tables.zz));
    // The strong coupler never stays on in a weighted layer.
    for (const Layer &l : weighted.layers) {
        if (l.is_virtual)
            continue;
        ASSERT_EQ(l.metrics.unsuppressed_edge.size(), couplings.size());
        EXPECT_EQ(l.metrics.unsuppressed_edge[strong_edge], 0);
    }
}

TEST(ZzxSchedTest, WeightedUsesRateMagnitudes)
{
    // Static ZZ is conventionally negative and Calibration only
    // requires finite rates: the weighted objective must weigh by
    // |zz|, so an all-negative snapshot schedules identically to its
    // mirrored positive one and still suppresses the strongest
    // coupler (a signed sum would instead *reward* leaving it on).
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    std::vector<double> pos(size_t(topo.g.numEdges()), khz(200.0));
    const size_t strong_edge = 3;
    pos[strong_edge] = khz(10000.0);
    std::vector<double> neg = pos;
    for (double &rate : neg)
        rate = -rate;
    const dev::Device dev_pos(topo, dev::DeviceParams{}, pos);

    dev::Calibration calib =
        dev_pos.calibration(); // keep coherence/anharmonicity equal
    calib.zz = neg;
    const dev::Device dev_neg = dev_pos.withCalibration(calib);

    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);

    const CutTables tables_pos(dev_pos, SchedPolicy::Zzx);
    const CutTables tables_neg(dev_neg, SchedPolicy::Zzx);
    const Schedule wpos = schedule(SchedPolicy::ZzxWeighted, c, dev_pos,
                                   GateDurations{}, {}, &tables_pos);
    const Schedule wneg = schedule(SchedPolicy::ZzxWeighted, c, dev_neg,
                                   GateDurations{}, {}, &tables_neg);
    expectSameSchedule(wpos, wneg);
    for (const Layer &l : wneg.layers)
        if (!l.is_virtual) {
            EXPECT_EQ(l.metrics.unsuppressed_edge[strong_edge], 0);
        }
}

TEST(ZzxSchedTest, WeightedRespectsRequirementBounds)
{
    // The suppression requirement R is policy-independent: weighted
    // layers obey the same NQ/NC caps as classic ones (mirrors
    // RequirementBoundsHold, on a heterogeneous snapshot).
    Rng rng(21);
    const graph::Topology topo = graph::gridTopology(3, 3);
    const dev::Device dev(
        topo, dev::Calibration::jittered(topo, dev::DeviceParams{},
                                         {0.0, 0.0, 0.0, 0.5}, rng));
    ckt::QuantumCircuit logical(9);
    logical.h(0);
    for (int q = 0; q + 1 < 9; ++q)
        logical.cx(q, q + 1);
    ckt::QuantumCircuit native = ckt::decomposeToNative(
        ckt::routeCircuit(logical, dev.graph()).circuit);

    const ZzxOptions opt = resolveZzxOptions({}, dev);
    const Schedule s =
        schedule(SchedPolicy::ZzxWeighted, native, dev, GateDurations{}, opt);
    checkInvariants(s, native, dev);
    for (const Layer &l : s.layers) {
        if (l.is_virtual)
            continue;
        EXPECT_LE(l.metrics.nq, opt.nq_max);
        EXPECT_LE(l.metrics.nc, opt.nc_max);
    }
}

TEST(ZzxSchedTest, DeviceTablesCarryCalibratedZz)
{
    // The shared per-device tables expose the snapshot's per-edge ZZ
    // rates so policies and diagnostics can weigh cuts by calibrated
    // residual crosstalk.
    const dev::Device dev = gridDevice(2, 3);
    const CutTables tables(dev, SchedPolicy::Zzx);
    EXPECT_EQ(tables.zz, dev.couplings());
    EXPECT_EQ(int(tables.zz.size()), dev.numCouplings());
}

} // namespace
} // namespace qzz::core
