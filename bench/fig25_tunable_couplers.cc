/**
 * @file
 * Fig. 25: on devices with tunable couplers, how many couplings must
 * be "turned off" per layer to kill unsuppressed ZZ.  Baseline
 * (Gau+ParSched) must switch off every coupling; under the
 * co-optimization only the intra-region couplings (NC) remain.
 * Includes the QV instances, as in the paper.
 */

#include "bench_common.h"

using namespace qzz;

int
main()
{
    bench::banner("Figure 25",
                  "couplings to turn off on tunable-coupler devices");
    exp::SuiteConfig scfg;
    scfg.with_qv = true;
    if (exp::quickMode())
        scfg.max_qubits = 6;
    auto suite = exp::buildSuite(scfg);

    const core::GateDurations durations{};
    Table table({"benchmark", "Gau+ParSched", "OptCtrl/Pert+ZZXSched",
                 "improvement"});
    for (const auto &entry : suite) {
        ckt::QuantumCircuit native = ckt::decomposeToNative(
            ckt::routeCircuit(entry.circuit, entry.device.graph())
                .circuit);
        core::Schedule zzx = core::schedule(core::SchedPolicy::Zzx, native,
                                            entry.device, durations);
        // Without pulse suppression every coupling carries ZZ in every
        // layer; with the co-optimization only NC per layer survive.
        const double baseline = double(entry.device.numCouplings());
        const double ours = zzx.meanNc();
        table.addRow({entry.label, formatF(baseline, 1),
                      formatF(ours, 2),
                      formatX(baseline / std::max(ours, 0.05), 1)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: a 10-20x reduction, growing only"
                 " slowly with qubit count.\n";
    return 0;
}
