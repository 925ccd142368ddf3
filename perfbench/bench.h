/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * report, the in-memory span recorder, and the workload entry points.
 * See perfbench/README.md for the workloads and metric catalog.
 */

#ifndef QZZ_PERFBENCH_BENCH_H
#define QZZ_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One benchmark invocation. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Per-run scratch directory (pulse cache, artifacts, socket). */
    std::filesystem::path tmp_dir;
    /** Where traced runs write their span log. */
    std::filesystem::path out_dir;
    /** Recorded reference fidelities (paper workloads). */
    std::filesystem::path reference;
};

/** Metrics plus operation accounting for the final JSON line. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             const std::string &note = "");

    /** Count one attempted operation; @p error non-empty marks it
     *  failed (printed, at most a few dozen lines per run). */
    void operation(const std::string &error = "");
    /** A failed check that is not tied to one operation (setup,
     *  trace coverage): counted as an attempted, failed operation. */
    void fail(const std::string &error) { operation(error); }

    /** Human-readable table, then the one-line JSON result last. */
    void print(std::ostream &os) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Spans kept in memory and written once the run ends. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }
    double nowMs() const { return msSince(origin_); }

    /** Open a span; returns its id (0 when tracing is off). */
    int64_t begin(const std::string &name, int64_t parent,
                  const std::string &item);
    /** Close span @p id (no-op for 0). */
    void end(int64_t id);
    /** Record an already-measured interval. */
    int64_t add(const std::string &name, int64_t parent, double start_ms,
                double end_ms, const std::string &item);

    const std::vector<Span> &spans() const { return spans_; }
    /** Write the spans as JSON lines. */
    void write(const std::filesystem::path &path) const;

  private:
    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span; free when tracing is off. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int64_t parent,
          const std::string &item)
        : t_(t), id_(t.on() ? t.begin(name, parent, item) : 0)
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer &t_;
    int64_t id_;
};

/** SplitMix64 finalizer: derives independent input seeds. */
inline uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** @p key's value in a per-name time map, 0 when absent. */
inline double
timeOf(const std::map<std::string, double> &by_name, const std::string &key)
{
    const auto it = by_name.find(key);
    return it == by_name.end() ? 0.0 : it->second;
}

/** Add percentile @p q of @p samples_ms as metric @p name, noting the
 *  sample counts. */
void reportLatency(Report &report, const std::string &name,
                   const std::vector<double> &samples_ms, double q,
                   const std::string &what);

/** Set-up time of one repetition, split as the setup.* metrics. */
struct SetupTimes
{
    double inputs_ms = 0.0;
    double pulse_library_ms = 0.0;
    double total_ms = 0.0;
};

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetupReps = 5;

/** Add the setup_s and setup.* metrics for @p reps to @p report. */
void reportSetup(Report &report, const std::vector<SetupTimes> &reps,
                 bool trace);

/** Time (ms) of one fixed ~1 ms floating-point kernel: a phase
 *  rotation swept over a 2048-amplitude register. */
double calibrationMs();

/**
 * Host-speed normalization of the paper workloads.  A shared virtual
 * machine changes speed by +-20% over seconds, per vCPU, which no run
 * length averages away.  The paper passes therefore time
 * calibrationMs() on the measuring thread before and after every
 * cell and rescale the cell's wall time by kReferenceKernelMs / (mean
 * kernel time around it): the reference is the kernel's median time
 * on the host the bounds were fixed on (4-vCPU x86-64 VM at 2.0 GHz),
 * so normalized times read as seconds on that host at its usual speed.
 */
inline constexpr double kReferenceKernelMs = 1.0;

/** Peak resident set of this process (MB). */
double peakRssMb();

/** Drop the process-wide pulse-library memo and load the Gaussian,
 *  OptCtrl and Pert libraries again (ms). */
double loadPulseLibraries();

/** Workloads; each fills @p report and returns normally even when
 *  checks fail (failures are counted in the report). */
void runPaper(const RunOptions &opt, Report &report);
void runServe(const RunOptions &opt, Report &report);

/** Record reference fidelities of @p workload for input variants
 *  [0, variants) to @p path (appending). */
void recordPaperReference(const std::string &workload, int variants,
                          const std::filesystem::path &path);

/** Layer probe for traced runs whose workload does not exercise the
 *  service path: replay @p requests serve-style requests serially
 *  through the service's public functions. */
void probeServiceLayers(const RunOptions &opt, size_t requests,
                        Report &report);

/** Layer probes for traced runs whose workload does not exercise a
 *  simulator: a few small fixed paper cells (@p ideal also reports
 *  sim.ideal_ms from them). */
void probeStateVectorLayers(const RunOptions &opt, bool ideal,
                            Report &report);
void probeDensityLayers(const RunOptions &opt, Report &report);

} // namespace perfbench

#endif // QZZ_PERFBENCH_BENCH_H
