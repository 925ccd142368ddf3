/**
 * @file
 * Domain example: inspect the layers ZZXSched builds and sweep the
 * alpha knob of the optimal-suppression objective (NQ vs NC
 * trade-off, Fig. 10 of the paper).
 */

#include <iostream>

#include "qzz.h"

namespace {

/** Render one layer's driven set as a grid diagram. */
void
printLayer(const qzz::core::Layer &layer, int rows, int cols)
{
    using qzz::core::ScheduledGate;
    if (layer.is_virtual) {
        std::cout << "  virtual layer (" << layer.gates.size()
                  << " RZ)\n";
        return;
    }
    std::cout << "  duration " << layer.duration
              << " ns, NQ=" << layer.metrics.nq
              << ", NC=" << layer.metrics.nc << "\n";
    for (int r = 0; r < rows; ++r) {
        std::cout << "    ";
        for (int c = 0; c < cols; ++c) {
            const int q = r * cols + c;
            std::cout << (layer.side[q] ? 'X' : '.');
        }
        std::cout << "\n";
    }
}

} // namespace

int
main()
{
    using namespace qzz;

    const int rows = 3, cols = 4;
    Rng rng(5);
    dev::Device device(graph::gridTopology(rows, cols),
                       dev::DeviceParams{}, rng);

    Rng crng(9);
    ckt::QuantumCircuit circuit = ckt::isingChain(12, 1);
    ckt::QuantumCircuit native = ckt::decomposeToNative(
        ckt::routeCircuit(circuit, device.graph()).circuit);

    core::Schedule sched = core::schedule(core::SchedPolicy::Zzx, native,
                                          device, core::GateDurations{});
    std::cout << "Ising-12 on a " << rows << "x" << cols
              << " grid: " << sched.physicalLayerCount()
              << " physical layers, " << sched.executionTime()
              << " ns total\n\nFirst layers (X = driven/pulsed):\n";
    int shown = 0;
    for (const core::Layer &l : sched.layers) {
        if (l.is_virtual)
            continue;
        printLayer(l, rows, cols);
        if (++shown == 4)
            break;
    }

    // Alpha sweep: the Definition 5.1 trade-off on a non-bipartite
    // topology (triangulated grid).
    std::cout << "\nalpha sweep on trigrid-3x3 (Definition 5.1):\n";
    core::SuppressionSolver solver(
        graph::triangulatedGridTopology(3, 3));
    Table table({"alpha", "NQ", "NC", "alpha*NQ+NC"});
    for (double alpha : {0.0, 0.25, 0.5, 1.0, 2.0, 5.0}) {
        core::SuppressionOptions opt;
        opt.alpha = alpha;
        opt.top_k = 4;
        auto res = solver.solve({}, opt);
        table.addRow({formatF(alpha, 2),
                      std::to_string(res.metrics.nq),
                      std::to_string(res.metrics.nc),
                      formatF(res.metrics.objective(alpha), 2)});
    }
    table.print(std::cout);
    return 0;
}
