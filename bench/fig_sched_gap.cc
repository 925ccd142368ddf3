/**
 * @file
 * Heuristic-vs-optimal scheduling gap (beyond the paper): on small
 * topologies where the branch-and-bound ExactCutSolver is tractable
 * (grid 2x3, one heavy-hex cell, ring 5) x {uniform, jittered}
 * calibrations, sweep seed-pinned random native layers and compare
 * every per-layer cut of the heuristic SuppressionSolver against the
 * exact optimum — under the classic alpha * NQ + NC objective and the
 * calibration-weighted one — then schedule full random circuits under
 * all five policies (ParSched, ZZXSched, ZzxWeighted, CycleAware,
 * ExactSched) and report each policy's mean calibrated residual ZZ.
 *
 * Emits BENCH_sched_gap.json (path overridable via argv[1]) and exits
 * non-zero if (i) any exact search fails to report Optimal, (ii) the
 * heuristic ever beats the exact optimum (impossible if the solver is
 * correct — this is the differential gate), or (iii) the heuristic's
 * worst cost ratio vs optimal regresses past the pinned bound.
 * QZZ_QUICK=1 shrinks the sweep for smoke runs.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "bench_common.h"

using namespace qzz;

namespace {

/**
 * The heuristic may legitimately trail the optimum — Algorithm 1's
 * T-join search is alpha-optimal only on planar duals and the greedy
 * path relaxation is approximate elsewhere.  The bound pins that
 * quality: grid and ring stay within 1.13x of optimal, but heavy-hex
 * constrained cuts reach 2.20x (classic) / 2.61x (weighted, jittered
 * calibration) — the degree-2 bridge qubits defeat the greedy
 * region-growing.  Gated with headroom at 3.0 so a regression of the
 * heuristic (or a broken oracle bound) still trips the gate.
 */
constexpr double kMaxGapRatio = 3.0;

/** One random native layer: disjoint RZX on a random edge subset, SX
 *  on a random subset of the rest (mirrors tests/common; the bench
 *  cannot link the test tree, so it carries its own copy). */
ckt::QuantumCircuit
randomLayer(const graph::Topology &topo, uint64_t seed)
{
    Rng rng(seed);
    const graph::Graph &g = topo.g;
    const int n = g.numVertices();
    ckt::QuantumCircuit c(n);

    std::vector<int> edge_order(size_t(g.numEdges()));
    for (int e = 0; e < g.numEdges(); ++e)
        edge_order[size_t(e)] = e;
    rng.shuffle(edge_order);

    std::vector<char> used(size_t(n), 0);
    for (int e : edge_order) {
        const graph::Edge &edge = g.edge(e);
        if (used[size_t(edge.u)] || used[size_t(edge.v)])
            continue;
        if (rng.uniform() >= 0.4)
            continue;
        c.rzx(edge.u, edge.v, kPi / 2.0);
        used[size_t(edge.u)] = 1;
        used[size_t(edge.v)] = 1;
    }
    for (int q = 0; q < n; ++q)
        if (!used[size_t(q)] && rng.uniform() < 0.7)
            c.sx(q);
    if (c.empty())
        c.sx(0);
    return c;
}

/** Stacked random layers as one native circuit. */
ckt::QuantumCircuit
randomCircuit(const graph::Topology &topo, int layers, uint64_t seed)
{
    ckt::QuantumCircuit c(topo.g.numVertices());
    for (int l = 0; l < layers; ++l) {
        const ckt::QuantumCircuit layer =
            randomLayer(topo, seed * 1000003u + uint64_t(l) + 1u);
        for (const ckt::Gate &gate : layer.gates())
            c.add(gate);
    }
    return c;
}

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

struct GapStats
{
    int layers = 0;
    int exact_not_optimal = 0;
    int heuristic_beats_exact = 0; ///< solver bug if ever nonzero
    double max_gap_classic = 1.0;
    double sum_gap_classic = 0.0;
    double max_gap_weighted = 1.0;
    double sum_gap_weighted = 0.0;
};

struct PolicyResidual
{
    std::string policy;
    double mean_residual_zz = 0.0;
};

struct CellResult
{
    std::string topology;
    std::string calib;
    GapStats gaps;
    std::vector<PolicyResidual> residuals;
};

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = [] {
        const char *env = std::getenv("QZZ_QUICK");
        return env != nullptr && env[0] == '1';
    }();
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_sched_gap.json";

    bench::banner("Scheduling optimality gap",
                  "heuristic cuts vs the exact branch-and-bound "
                  "oracle, all policies");

    const int layers_per_cell = quick ? 15 : 60;
    const int circuits_per_cell = quick ? 2 : 4;
    const int circuit_depth = quick ? 4 : 6;

    std::vector<graph::Topology> topologies;
    topologies.push_back(graph::gridTopology(2, 3));
    topologies.push_back(graph::ringTopology(5));
    if (!quick)
        topologies.push_back(graph::heavyHexTopology(1, 1));

    const core::SchedPolicy policies[] = {
        core::SchedPolicy::Par, core::SchedPolicy::Zzx,
        core::SchedPolicy::ZzxWeighted, core::SchedPolicy::CycleAware,
        core::SchedPolicy::Exact};

    std::vector<CellResult> cells;
    for (const graph::Topology &topo : topologies) {
        for (double spread : {0.0, 0.4}) {
            // Uniform snapshot at spread 0 (coupling_stddev pinned to
            // zero so the jitter under study is the only
            // heterogeneity), Gaussian-jittered per-edge ZZ otherwise.
            dev::DeviceParams params;
            params.coupling_stddev = 0.0;
            dev::CalibrationJitter jitter;
            jitter.t1_rel = 0.0;
            jitter.t2_rel = 0.0;
            jitter.anharmonicity_rel = 0.0;
            jitter.zz_rel = spread;
            Rng rng(424242);
            const dev::Device device(
                topo,
                dev::Calibration::jittered(topo, params, jitter, rng));
            const std::vector<double> zz = device.couplings();

            CellResult cell;
            cell.topology = topo.name;
            cell.calib = spread == 0.0 ? "uniform" : "jittered40";

            // --- Cut-level differential sweep -----------------------
            core::SuppressionSolver heuristic(topo);
            core::ExactCutSolver exact(topo.g);
            core::SuppressionOptions classic;
            core::SuppressionOptions weighted;
            weighted.edge_zz = &zz;

            for (int seed = 0; seed < layers_per_cell; ++seed) {
                const ckt::QuantumCircuit layer = randomLayer(
                    topo, uint64_t(seed) * 48271u + 11u);
                const std::vector<int> q = twoQubitSet(layer);
                ++cell.gaps.layers;

                for (const core::SuppressionOptions *opt :
                     {&classic, &weighted}) {
                    const bool is_weighted = opt == &weighted;
                    const core::ExactCutResult e =
                        exact.solve(q, *opt);
                    if (e.status != core::ExactStatus::Optimal)
                        ++cell.gaps.exact_not_optimal;
                    const core::SuppressionResult h =
                        heuristic.solve(q, *opt);
                    const double h_cost = core::cutPrimaryObjective(
                        h.metrics, opt->alpha, opt->edge_zz);
                    if (h_cost < e.objective - 1e-9)
                        ++cell.gaps.heuristic_beats_exact;
                    const double ratio =
                        h_cost / std::max(e.objective, 1e-30);
                    if (is_weighted) {
                        cell.gaps.max_gap_weighted = std::max(
                            cell.gaps.max_gap_weighted, ratio);
                        cell.gaps.sum_gap_weighted += ratio;
                    } else {
                        cell.gaps.max_gap_classic = std::max(
                            cell.gaps.max_gap_classic, ratio);
                        cell.gaps.sum_gap_classic += ratio;
                    }
                }
            }

            // --- Schedule-level residual per policy -----------------
            const core::GateDurations durations{};
            for (core::SchedPolicy policy : policies) {
                const core::CutTables tables(device, policy);
                double sum = 0.0;
                for (int s = 0; s < circuits_per_cell; ++s) {
                    const ckt::QuantumCircuit c = randomCircuit(
                        topo, circuit_depth,
                        uint64_t(s) * 2654435761u + 97u);
                    const core::Schedule sched = core::schedule(
                        policy, c, device, durations, {}, &tables);
                    sum += core::meanResidualZz(sched, tables.zz);
                }
                cell.residuals.push_back(
                    {core::schedPolicyName(policy),
                     sum / double(circuits_per_cell)});
            }

            Table table({"metric", "value"});
            table.setTitle(cell.topology + " / " + cell.calib);
            table.addRow({"layers swept",
                          std::to_string(cell.gaps.layers)});
            table.addRow(
                {"max gap classic",
                 formatF(cell.gaps.max_gap_classic, 4)});
            table.addRow(
                {"max gap weighted",
                 formatF(cell.gaps.max_gap_weighted, 4)});
            for (const PolicyResidual &r : cell.residuals)
                table.addRow({"residual " + r.policy,
                              bench::sci(r.mean_residual_zz)});
            table.print(std::cout);
            std::cout << "\n";
            std::cerr << "[fig_sched_gap] " << cell.topology << " / "
                      << cell.calib << " done\n";
            cells.push_back(std::move(cell));
        }
    }

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot open " << out_path << "\n";
        return 1;
    }
    out.precision(12);
    out << "{\n  \"quick\": " << (quick ? "true" : "false")
        << ",\n  \"max_gap_ratio_bound\": " << kMaxGapRatio
        << ",\n  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        const double denom = std::max(1, c.gaps.layers);
        out << "    {\"topology\": \"" << c.topology
            << "\", \"calib\": \"" << c.calib
            << "\", \"layers\": " << c.gaps.layers
            << ", \"exact_not_optimal\": " << c.gaps.exact_not_optimal
            << ", \"heuristic_beats_exact\": "
            << c.gaps.heuristic_beats_exact
            << ", \"max_gap_classic\": " << c.gaps.max_gap_classic
            << ", \"mean_gap_classic\": "
            << c.gaps.sum_gap_classic / denom
            << ", \"max_gap_weighted\": " << c.gaps.max_gap_weighted
            << ", \"mean_gap_weighted\": "
            << c.gaps.sum_gap_weighted / denom
            << ", \"mean_residual_zz\": {";
        for (size_t r = 0; r < c.residuals.size(); ++r)
            out << "\"" << c.residuals[r].policy
                << "\": " << c.residuals[r].mean_residual_zz
                << (r + 1 < c.residuals.size() ? ", " : "");
        out << "}}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    // Acceptance: exact always Optimal on these sizes, never beaten
    // by any heuristic cut, and the heuristic's worst ratio vs
    // optimal inside the pinned quality bound.
    bool ok = true;
    for (const CellResult &c : cells) {
        if (c.gaps.exact_not_optimal > 0) {
            std::cerr << "FAIL: " << c.topology << "/" << c.calib
                      << ": " << c.gaps.exact_not_optimal
                      << " exact searches exhausted their budget\n";
            ok = false;
        }
        if (c.gaps.heuristic_beats_exact > 0) {
            std::cerr << "FAIL: " << c.topology << "/" << c.calib
                      << ": heuristic beat the exact optimum on "
                      << c.gaps.heuristic_beats_exact
                      << " cuts (exact solver bug)\n";
            ok = false;
        }
        const double worst = std::max(c.gaps.max_gap_classic,
                                      c.gaps.max_gap_weighted);
        if (worst > kMaxGapRatio) {
            std::cerr << "FAIL: " << c.topology << "/" << c.calib
                      << ": heuristic gap ratio " << formatF(worst, 4)
                      << " exceeds the pinned bound "
                      << formatF(kMaxGapRatio, 2) << "\n";
            ok = false;
        }
    }
    std::cout << (ok ? "sched-gap acceptance OK\n"
                     : "sched-gap acceptance FAILED\n");
    return ok ? 0 : 1;
}
