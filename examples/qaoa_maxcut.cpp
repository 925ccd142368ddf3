/**
 * @file
 * Domain example: QAOA MaxCut on a 6-qubit grid device.
 *
 * Walks the full co-optimization stack explicitly (route -> lower ->
 * schedule -> pulses -> simulate) instead of using the one-shot
 * pipeline, to show what each stage produces.
 */

#include <iostream>

#include "qzz.h"

int
main()
{
    using namespace qzz;

    Rng rng(7);
    dev::Device device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
    Rng circuit_rng(2);
    ckt::QuantumCircuit qaoa = ckt::qaoaMaxCut(6, 1, circuit_rng);
    std::cout << "QAOA-6 logical circuit: " << qaoa.size()
              << " gates, " << qaoa.twoQubitCount()
              << " two-qubit gates\n";

    // Stage 1: routing.
    ckt::RoutedCircuit routed = ckt::routeCircuit(qaoa, device.graph());
    std::cout << "Routing inserted " << routed.swaps_inserted
              << " SWAP gates\n";

    // Stage 2: native lowering.
    ckt::QuantumCircuit native = ckt::decomposeToNative(routed.circuit);
    std::cout << "Native circuit: " << native.size() << " gates ("
              << native.twoQubitCount() << " Rzx)\n\n";

    // Stage 3+4: schedule and attach pulse libraries, then simulate.
    // Each configuration is a Compiler running the same four stages
    // the code above walked by hand.
    Table table({"configuration", "layers", "exec (ns)", "mean NC",
                 "max NQ", "fidelity"});
    for (auto [pulse, sched] :
         {std::pair{core::PulseMethod::Gaussian, core::SchedPolicy::Par},
          {core::PulseMethod::Gaussian, core::SchedPolicy::Zzx},
          {core::PulseMethod::Pert, core::SchedPolicy::Par},
          {core::PulseMethod::Pert, core::SchedPolicy::Zzx}}) {
        core::Compiler compiler = core::CompilerBuilder(device)
                                      .pulseMethod(pulse)
                                      .schedPolicy(sched)
                                      .build();
        exp::FidelityResult res =
            exp::evaluateFidelity(qaoa, compiler);
        table.addRow({exp::configName(compiler.options()),
                      std::to_string(res.physical_layers),
                      formatF(res.execution_time, 0),
                      formatF(res.mean_nc, 2),
                      std::to_string(res.max_nq),
                      formatF(res.fidelity, 4)});
    }
    table.setTitle("QAOA-6: pulse/scheduling ablation (Fig. 21 shape)");
    table.print(std::cout);
    return 0;
}
