/**
 * @file
 * Ablation: the suppression requirement R = (NQ <= nq_max,
 * NC <= nc_max) of ZZXSched (Sec. 6) controls the
 * parallelism-vs-suppression trade-off.  This sweep shows how layer
 * counts, execution time and residual crosstalk respond to the
 * thresholds, on a large and a small benchmark.
 */

#include "bench_common.h"

using namespace qzz;

int
main()
{
    bench::banner("Ablation",
                  "suppression requirement thresholds (ZZXSched)");
    exp::SuiteConfig scfg;
    auto suite = exp::buildSuite(scfg);

    for (const char *label : {"QFT-9", "GRC-12"}) {
        const exp::SuiteEntry *entry = nullptr;
        for (const auto &e : suite)
            if (e.label == label)
                entry = &e;
        if (!entry)
            continue;
        ckt::QuantumCircuit native = ckt::decomposeToNative(
            ckt::routeCircuit(entry->circuit, entry->device.graph())
                .circuit);
        core::Schedule par = core::parSchedule(native, entry->device,
                                               core::GateDurations{});

        Table table({"nq_max", "nc_max", "layers", "exec vs ParSched",
                     "mean NC", "max NQ"});
        table.setTitle(std::string(label) +
                       " (device couplings: " +
                       std::to_string(entry->device.numCouplings()) +
                       ")");
        struct Setting
        {
            int nq, nc;
        };
        const int e_half = entry->device.numCouplings() / 2;
        const Setting settings[] = {
            {2, 2},       {2, e_half},  {3, e_half},
            {4, e_half},  {6, e_half},  {12, 2 * e_half},
        };
        for (const Setting &s : settings) {
            core::ZzxOptions opt;
            opt.nq_max = s.nq;
            opt.nc_max = s.nc;
            core::Schedule sched =
                core::schedule(core::SchedPolicy::Zzx, native,
                               entry->device, core::GateDurations{}, opt);
            table.addRow({std::to_string(s.nq), std::to_string(s.nc),
                          std::to_string(sched.physicalLayerCount()),
                          formatX(sched.executionTime() /
                                      par.executionTime(),
                                  2),
                          formatF(sched.meanNc(), 2),
                          std::to_string(sched.maxNq())});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Looser requirements recover ParSched-like"
                 " parallelism at the cost of more unsuppressed\n"
                 "couplings per layer; the paper's defaults (NQ < max"
                 " degree, NC <= |E|/2) sit at the knee.\n";
    return 0;
}
