#include "sim/sim_metrics.h"

namespace qzz::sim {

SimMetrics
simMetrics(const char *flavor)
{
    auto &reg = tel::MetricsRegistry::global();
    const tel::MetricLabels by_sim{{"sim", flavor}};
    // Kernel times range from ~1us (6-qubit layers) up to ~1s for the
    // largest registers: 100ns * 4^13 covers it in 14 buckets.
    const auto buckets = tel::HistogramBuckets::logarithmic(100.0, 4.0, 14);
    auto kernel = [&](const char *name) {
        return &reg.histogram(
            "qzz_sim_kernel_ns",
            "Nanoseconds spent per physical layer in one simulator "
            "kernel class (per segment for setup and wait)",
            buckets, {{"sim", flavor}, {"kernel", name}});
    };
    SimMetrics m;
    m.layers = &reg.counter("qzz_sim_layers_total",
                            "Physical layers integrated", by_sim);
    m.steps = &reg.counter("qzz_sim_steps_total",
                           "Strang integrator steps executed", by_sim);
    m.phase_ns = kernel("phase");
    m.gate_ns = kernel("gate");
    m.decoh_ns = kernel("decoherence");
    m.setup_ns = kernel("setup");
    m.wait_ns = kernel("wait");
    return m;
}

} // namespace qzz::sim
