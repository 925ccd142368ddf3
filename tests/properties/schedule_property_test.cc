/**
 * @file
 * Randomized schedule invariants: for random logical circuits routed
 * onto random grid devices, both schedulers must (i) schedule every
 * gate exactly once with no qubit reuse inside a layer, (ii) agree on
 * the ideal output state, and (iii) ZZXSched's layers must realize
 * their recorded cuts and stay within the suppression requirement
 * whenever no fallback was needed.
 */

#include <gtest/gtest.h>

#include "circuit/decompose.h"
#include "circuit/router.h"
#include "common/rng.h"
#include "core/par_sched.h"
#include "core/sched_walk.h"
#include "graph/topologies.h"
#include "sim/ideal_sim.h"

namespace qzz::core {
namespace {

struct Case
{
    uint64_t seed;
    int rows;
    int cols;
    int gates;
};

class SchedulePropertyTest : public ::testing::TestWithParam<Case>
{
  protected:
    static ckt::QuantumCircuit
    randomCircuit(int n, int gates, Rng &rng)
    {
        ckt::QuantumCircuit c(n);
        for (int i = 0; i < gates; ++i) {
            switch (rng.uniformInt(0, 4)) {
            case 0:
                c.h(rng.uniformInt(0, n - 1));
                break;
            case 1:
                c.t(rng.uniformInt(0, n - 1));
                break;
            case 2:
                c.sx(rng.uniformInt(0, n - 1));
                break;
            default: {
                int a = rng.uniformInt(0, n - 1);
                int b = rng.uniformInt(0, n - 1);
                if (a != b)
                    c.cx(a, b);
                break;
            }
            }
        }
        if (c.empty())
            c.h(0);
        return c;
    }
};

TEST_P(SchedulePropertyTest, InvariantsHold)
{
    const Case &cfg = GetParam();
    Rng rng(cfg.seed);
    const int n = cfg.rows * cfg.cols;
    auto topo = graph::gridTopology(cfg.rows, cfg.cols);
    dev::Device device(topo, dev::DeviceParams{}, rng);

    ckt::QuantumCircuit logical = randomCircuit(n, cfg.gates, rng);
    ckt::QuantumCircuit native = ckt::decomposeToNative(
        ckt::routeCircuit(logical, device.graph()).circuit);

    const GateDurations durations{};
    Schedule par = parSchedule(native, device, durations);
    Schedule zzx = schedule(SchedPolicy::Zzx, native, device, durations);

    for (const Schedule *s : {&par, &zzx}) {
        int total = 0;
        for (const Layer &l : s->layers) {
            std::vector<int> used(size_t(n), 0);
            for (const ScheduledGate &sg : l.gates) {
                if (!sg.supplemented)
                    ++total;
                if (sg.gate.isVirtual())
                    continue;
                for (int q : sg.gate.qubits) {
                    EXPECT_EQ(used[q], 0);
                    used[q] = 1;
                }
            }
        }
        EXPECT_EQ(total, int(native.size()));
    }

    // Same logical semantics.
    sim::StateVector a = sim::runIdealSchedule(par);
    sim::StateVector b = sim::runIdealSchedule(zzx);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);

    // ZZXSched layers realize their cuts.
    for (const Layer &l : zzx.layers) {
        if (l.is_virtual)
            continue;
        SuppressionMetrics m = evaluateCut(device.graph(), l.side);
        EXPECT_EQ(m.nc, l.metrics.nc);
        EXPECT_EQ(m.nq, l.metrics.nq);
    }

    // Parallelism cost stays bounded.
    EXPECT_LE(zzx.executionTime(),
              3.0 * par.executionTime() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, SchedulePropertyTest,
    ::testing::Values(Case{1, 2, 2, 10}, Case{2, 2, 2, 25},
                      Case{3, 2, 3, 20}, Case{4, 2, 3, 40},
                      Case{5, 3, 3, 30}, Case{6, 3, 3, 60},
                      Case{7, 3, 4, 40}, Case{8, 3, 4, 80},
                      Case{9, 1, 4, 15}, Case{10, 2, 5, 35}),
    [](const ::testing::TestParamInfo<Case> &info) {
        const Case &c = info.param;
        return "grid" + std::to_string(c.rows) +
               "x" + std::to_string(c.cols) + "_g" +
               std::to_string(c.gates) + "_s" +
               std::to_string(c.seed);
    });

} // namespace
} // namespace qzz::core
