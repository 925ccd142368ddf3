/**
 * @file
 * Fig. 24: execution time of every benchmark under ZZXSched relative
 * to ParSched (the parallelism cost of suppression), plus an alpha
 * ablation showing the NQ/NC-vs-time trade-off knob.
 */

#include "bench_common.h"

using namespace qzz;

int
main()
{
    bench::banner("Figure 24",
                  "relative execution time (ZZXSched / ParSched)");
    exp::SuiteConfig scfg;
    if (exp::quickMode())
        scfg.max_qubits = 6;
    auto suite = exp::buildSuite(scfg);

    const core::GateDurations durations{};
    Table table({"benchmark", "ParSched (ns)", "ZZXSched (ns)",
                 "relative"});
    double worst = 0.0;
    for (const auto &entry : suite) {
        ckt::QuantumCircuit native = ckt::decomposeToNative(
            ckt::routeCircuit(entry.circuit, entry.device.graph())
                .circuit);
        core::Schedule par =
            core::parSchedule(native, entry.device, durations);
        core::Schedule zzx = core::schedule(core::SchedPolicy::Zzx, native,
                                            entry.device, durations);
        const double rel = zzx.executionTime() / par.executionTime();
        worst = std::max(worst, rel);
        table.addRow({entry.label, formatF(par.executionTime(), 0),
                      formatF(zzx.executionTime(), 0),
                      formatX(rel, 2)});
    }
    table.print(std::cout);
    std::cout << "\nworst-case slowdown: " << formatX(worst, 2)
              << "  (paper: typically < 2x)\n\n";

    // Ablation: alpha's effect on layers and suppression for one
    // representative two-qubit-gate-heavy instance.
    const auto &entry = [&]() -> const exp::SuiteEntry & {
        for (const auto &e : suite)
            if (e.label == "QFT-6")
                return e;
        return suite.front();
    }();
    ckt::QuantumCircuit native = ckt::decomposeToNative(
        ckt::routeCircuit(entry.circuit, entry.device.graph()).circuit);
    Table ablation({"alpha", "layers", "exec (ns)", "mean NC",
                    "max NQ"});
    ablation.setTitle("alpha ablation on " + entry.label);
    for (double alpha : {0.0, 0.25, 0.5, 1.0, 2.0}) {
        core::ZzxOptions opt;
        opt.suppression.alpha = alpha;
        core::Schedule s = core::schedule(core::SchedPolicy::Zzx, native,
                                          entry.device, durations, opt);
        ablation.addRow({formatF(alpha, 2),
                         std::to_string(s.physicalLayerCount()),
                         formatF(s.executionTime(), 0),
                         formatF(s.meanNc(), 2),
                         std::to_string(s.maxNq())});
    }
    ablation.print(std::cout);
    return 0;
}
