/**
 * @file
 * Differential fuzz of the scheduling stack against the exact oracle.
 *
 * Hundreds of seed-pinned random layers over the small-topology sweep
 * (grid, triangulated grid, odd/even ring, heavy-hex), each solved
 * both by the heuristic SuppressionSolver and the branch-and-bound
 * ExactCutSolver:
 *
 *  - the exact cost is never beaten by any heuristic cut — under the
 *    classic objective and the calibration-weighted one;
 *  - every exact search on these sizes completes within the default
 *    budget (status Optimal);
 *  - the exact solver is deterministic: fresh solvers on the same
 *    instance return bit-identical cuts and node counts;
 *  - full schedules from every policy are structurally valid, and the
 *    cut-based policies respect the suppression requirement R (via
 *    the shared tests/common checker).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/random_circuits.h"
#include "common/rng.h"
#include "common/suppression_invariants.h"
#include "common/units.h"
#include "core/sched_walk.h"
#include "graph/topologies.h"

namespace qzz::core {
namespace {

constexpr int kSeedsPerTopology = 60; // x5 topologies = 300 layers

/** Union of qubits touched by two-qubit gates (the constrained set a
 *  frontier walk would hand the solver for this layer). */
std::vector<int>
twoQubitSet(const ckt::QuantumCircuit &c)
{
    std::vector<int> q;
    for (const ckt::Gate &g : c.gates())
        if (g.isTwoQubit())
            for (int v : g.qubits)
                q.push_back(v);
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    return q;
}

double
heuristicCost(const SuppressionSolver &solver,
              const std::vector<int> &q, const SuppressionOptions &opt)
{
    const SuppressionResult res = solver.solve(q, opt);
    return cutPrimaryObjective(res.metrics, opt.alpha, opt.edge_zz);
}

TEST(SchedOracleTest, ExactNeverBeatenOnGeneratedLayersClassic)
{
    for (const graph::Topology &topo :
         testsup::smallSweepTopologies()) {
        SuppressionSolver heuristic(topo);
        ExactCutSolver exact(topo.g);
        for (int seed = 0; seed < kSeedsPerTopology; ++seed) {
            const ckt::QuantumCircuit layer = testsup::randomLayer(
                topo, uint64_t(seed) * 7919u + 13u);
            const std::vector<int> q = twoQubitSet(layer);

            const ExactCutResult e = exact.solve(q);
            ASSERT_EQ(e.status, ExactStatus::Optimal)
                << topo.name << " seed " << seed;
            for (int v : q)
                ASSERT_EQ(e.side[size_t(v)], 1)
                    << topo.name << " seed " << seed;

            const double h =
                heuristicCost(heuristic, q, SuppressionOptions{});
            EXPECT_LE(e.objective, h + 1e-9)
                << topo.name << " seed " << seed << " |Q|="
                << q.size();
        }
    }
}

TEST(SchedOracleTest, ExactNeverBeatenOnGeneratedLayersWeighted)
{
    Rng jitter_rng(20260808);
    for (const graph::Topology &topo :
         testsup::smallSweepTopologies()) {
        // Jittered snapshot: couplings drawn from DeviceParams'
        // nonzero-stddev distribution, so the weighted objective is
        // genuinely non-uniform.
        const dev::Device dev(topo, dev::DeviceParams{}, jitter_rng);
        const std::vector<double> zz = dev.couplings();
        SuppressionOptions wopt;
        wopt.edge_zz = &zz;

        SuppressionSolver heuristic(topo);
        ExactCutSolver exact(topo.g);
        for (int seed = 0; seed < kSeedsPerTopology; ++seed) {
            const ckt::QuantumCircuit layer = testsup::randomLayer(
                topo, uint64_t(seed) * 104729u + 7u);
            const std::vector<int> q = twoQubitSet(layer);

            const ExactCutResult e = exact.solve(q, wopt);
            ASSERT_EQ(e.status, ExactStatus::Optimal)
                << topo.name << " seed " << seed;

            const double h = heuristicCost(heuristic, q, wopt);
            EXPECT_LE(e.objective, h + 1e-9)
                << topo.name << " seed " << seed << " |Q|="
                << q.size();
            // The weighted winner is never worse under its own
            // objective than the classic winner.
            const ExactCutResult ec = exact.solve(q);
            EXPECT_LE(e.objective,
                      cutPrimaryObjective(ec.metrics, wopt.alpha,
                                          wopt.edge_zz) +
                          1e-9)
                << topo.name << " seed " << seed;
        }
    }
}

TEST(SchedOracleTest, ExactIsDeterministicAcrossRuns)
{
    for (const graph::Topology &topo :
         testsup::smallSweepTopologies()) {
        ExactCutSolver a(topo.g);
        ExactCutSolver b(topo.g);
        for (int seed = 0; seed < 10; ++seed) {
            const ckt::QuantumCircuit layer = testsup::randomLayer(
                topo, uint64_t(seed) * 31u + 3u);
            const std::vector<int> q = twoQubitSet(layer);
            const ExactCutResult r1 = a.solve(q);
            const ExactCutResult r2 = b.solve(q);
            EXPECT_EQ(r1.side, r2.side)
                << topo.name << " seed " << seed;
            EXPECT_EQ(r1.nodes, r2.nodes)
                << topo.name << " seed " << seed;
            EXPECT_DOUBLE_EQ(r1.objective, r2.objective);
        }
    }
}

TEST(SchedOracleTest, AllPoliciesScheduleGeneratedCircuitsValidly)
{
    const GateDurations durations{};
    for (const graph::Topology &topo :
         testsup::smallSweepTopologies()) {
        std::vector<double> couplings(size_t(topo.g.numEdges()),
                                      khz(200.0));
        const dev::Device dev(topo, dev::DeviceParams{}, couplings);
        const ZzxOptions resolved = resolveZzxOptions({}, dev);
        const CutTables heuristic(dev, SchedPolicy::Zzx);
        const CutTables exact(dev, SchedPolicy::Exact);

        for (int seed = 0; seed < 8; ++seed) {
            const ckt::QuantumCircuit c = testsup::randomNativeCircuit(
                topo, 5, uint64_t(seed) * 6151u + 1u);
            const std::string ctx =
                topo.name + " seed " + std::to_string(seed);

            const Schedule par = schedule(SchedPolicy::Par, c, dev,
                                          durations);
            testsup::expectValidSchedule(par, c, dev, ctx + " par");

            for (SchedPolicy policy :
                 {SchedPolicy::Zzx, SchedPolicy::ZzxWeighted,
                  SchedPolicy::CycleAware, SchedPolicy::Exact}) {
                const Schedule s = schedule(
                    policy, c, dev, durations, {},
                    policy == SchedPolicy::Exact ? &exact : &heuristic);
                const std::string label =
                    ctx + " " + schedPolicyName(policy);
                testsup::expectValidSchedule(s, c, dev, label);
                testsup::expectSuppressionInvariants(s, dev, resolved,
                                                     label);
            }
        }
    }
}

} // namespace
} // namespace qzz::core
