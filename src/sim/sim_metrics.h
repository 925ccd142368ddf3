/**
 * @file
 * Telemetry handles for the schedule simulators.
 *
 * The simulators publish to the process-wide MetricsRegistry under
 * the qzz_sim_* names (docs/observability.md): layer/step counters
 * and per-kernel-class nanosecond histograms, labeled by simulator
 * flavor.  Handles are resolved once at simulator construction;
 * recording is per *layer* (timings are accumulated across a layer's
 * steps and observed once) and per *segment* for the split's own
 * setup and wait, and the step loop reads the clock on a sample of
 * its steps only.
 */

#ifndef QZZ_SIM_SIM_METRICS_H
#define QZZ_SIM_SIM_METRICS_H

#include <chrono>

#include "common/telemetry.h"

namespace qzz::sim {

/** Instrument handles for one simulator flavor; null when telemetry
 *  is disabled in the options. */
struct SimMetrics
{
    tel::Counter *layers = nullptr;
    tel::Counter *steps = nullptr;
    tel::Histogram *phase_ns = nullptr;  ///< diagonal ZZ phase sweeps
    tel::Histogram *gate_ns = nullptr;   ///< 1Q/2Q drive propagators
    tel::Histogram *decoh_ns = nullptr;  ///< Kraus decoherence sweeps
    tel::Histogram *setup_ns = nullptr;  ///< per segment: outside the steps
    tel::Histogram *wait_ns = nullptr;   ///< per segment: wall - mean part

    bool enabled() const { return layers != nullptr; }
};

/** Resolve (registering on first use) the qzz_sim_* instruments for
 *  @p flavor ("density" or "statevector") in the global registry. */
SimMetrics simMetrics(const char *flavor);

/** Nanosecond accumulator for one kernel class within one layer.  An
 *  interval from start() to stop() counts @c weight times, the number
 *  of steps it stands for; at weight 0 (the default) neither reads the
 *  clock. */
class KernelTimer
{
  public:
    double weight = 0.0;

    void start()
    {
        if (weight != 0.0)
            t_ = std::chrono::steady_clock::now();
    }
    void stop()
    {
        if (weight != 0.0)
            ns_ += weight * double(std::chrono::duration_cast<
                                       std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - t_)
                                       .count());
    }
    double ns() const { return ns_; }

  private:
    double ns_ = 0.0;
    std::chrono::steady_clock::time_point t_;
};

} // namespace qzz::sim

#endif // QZZ_SIM_SIM_METRICS_H
