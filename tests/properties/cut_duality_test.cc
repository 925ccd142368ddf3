/**
 * @file
 * Property tests for the planar cut <-> odd-vertex-pairing duality
 * (Theorem 3.1) across a family of topologies and constrained
 * queries, using parameterized sweeps.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/suppression.h"
#include "graph/topologies.h"

namespace qzz::core {
namespace {

struct TopoCase
{
    const char *name;
    graph::Topology (*make)();
};

// Without a printer gtest names each case by the raw bytes of its
// pointers, which address-space randomization changes on every run.
void
PrintTo(const TopoCase &c, std::ostream *os)
{
    *os << c.name;
}

graph::Topology
makeGrid34()
{
    return graph::gridTopology(3, 4);
}
graph::Topology
makeGrid44()
{
    return graph::gridTopology(4, 4);
}
graph::Topology
makeTrigrid33()
{
    return graph::triangulatedGridTopology(3, 3);
}
graph::Topology
makeRing7()
{
    return graph::ringTopology(7);
}
graph::Topology
makeLine9()
{
    return graph::lineTopology(9);
}

class CutDualityTest : public ::testing::TestWithParam<TopoCase>
{
};

TEST_P(CutDualityTest, UnconstrainedCutIsMaxCutQuality)
{
    // The remaining-set of the solver's cut can never beat the
    // trivial bound and must satisfy evaluateCut self-consistency.
    graph::Topology topo = GetParam().make();
    SuppressionSolver solver(topo);
    SuppressionResult res = solver.solve({});
    SuppressionMetrics check = evaluateCut(topo.g, res.side);
    EXPECT_EQ(check.nc, res.metrics.nc);
    EXPECT_EQ(check.nq, res.metrics.nq);
    // A bipartite topology must reach complete suppression.
    if (topo.g.twoColor().has_value()) {
        EXPECT_EQ(res.metrics.nc, 0);
        EXPECT_EQ(res.metrics.nq, 1);
    } else {
        EXPECT_GE(res.metrics.nc, 1);
    }
}

TEST_P(CutDualityTest, RemainingSetComponentsShareASide)
{
    // Theorem 5.1: vertices in one connected component of the
    // remaining-set belong to the same partition.
    graph::Topology topo = GetParam().make();
    SuppressionSolver solver(topo);
    SuppressionResult res = solver.solve({});
    const auto &m = res.metrics;
    for (const graph::Edge &e : topo.g.edges())
        if (m.unsuppressed_edge[e.id]) {
            EXPECT_EQ(res.side[e.u], res.side[e.v]);
        }
    for (int u = 0; u < topo.g.numVertices(); ++u)
        for (int v = 0; v < topo.g.numVertices(); ++v)
            if (m.region_of[u] == m.region_of[v]) {
                EXPECT_EQ(res.side[u], res.side[v]);
            }
}

TEST_P(CutDualityTest, ConstrainedQueriesKeepQTogether)
{
    graph::Topology topo = GetParam().make();
    SuppressionSolver solver(topo);
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        // Random adjacent pair plus possibly a second one.
        const auto &e1 = topo.g.edges()[size_t(
            rng.uniformInt(0, topo.g.numEdges() - 1))];
        std::vector<int> q{e1.u, e1.v};
        if (trial % 2 == 0) {
            const auto &e2 = topo.g.edges()[size_t(
                rng.uniformInt(0, topo.g.numEdges() - 1))];
            if (e2.u != e1.u && e2.u != e1.v && e2.v != e1.u &&
                e2.v != e1.v) {
                q.push_back(e2.u);
                q.push_back(e2.v);
            }
        }
        SuppressionResult res = solver.solve(q);
        for (size_t i = 1; i < q.size(); ++i)
            EXPECT_EQ(res.side[q[i]], res.side[q[0]])
                << GetParam().name << " trial " << trial;
        // Gate edges always stay unsuppressed (they join same-side
        // vertices), so NC is at least the number of gate edges.
        int gate_edges = 0;
        for (const graph::Edge &e : topo.g.edges()) {
            bool u_in = false, v_in = false;
            for (int x : q) {
                u_in = u_in || x == e.u;
                v_in = v_in || x == e.v;
            }
            if (u_in && v_in)
                ++gate_edges;
        }
        EXPECT_GE(res.metrics.nc, gate_edges);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CutDualityTest,
    ::testing::Values(TopoCase{"grid34", makeGrid34},
                      TopoCase{"grid44", makeGrid44},
                      TopoCase{"trigrid33", makeTrigrid33},
                      TopoCase{"ring7", makeRing7},
                      TopoCase{"line9", makeLine9}),
    [](const ::testing::TestParamInfo<TopoCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace qzz::core
