// qzz_perfbench: the repository benchmark binary.
//
//   qzz_perfbench --workload paper_sv|paper_dm|serve_mixed --seed N
//                 --seconds S --trace 0|1 [--root DIR]
//   qzz_perfbench --record paper_sv|paper_dm --variants N
//
// Prints a metric table, then one JSON line with correct / attempted /
// failed / metrics.  perfbench/run.py builds and runs this binary.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.h"
#include "core/pulse_opt.h"

namespace perfbench {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void
Report::add(const std::string &name, double value, const std::string &unit,
            const std::string &note)
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            throw std::logic_error("metric reported twice: " + name);
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = -1.0;
    }
    metrics_.push_back({name, value, unit, note});
}

void
Report::operation(const std::string &error)
{
    ++attempted_;
    if (error.empty())
        return;
    if (failed_ < 40)
        std::cout << "FAILED: " << error << "\n";
    ++failed_;
}

void
Report::print(std::ostream &os) const
{
    char buf[512];
    for (const Metric &m : metrics_) {
        std::snprintf(buf, sizeof(buf), "%-28s %14.6g %-6s %s\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      m.note.c_str());
        os << buf;
    }
    os << "operations: " << attempted_ << " attempted, " << failed_
       << " failed\n";
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
        os << (i ? ", " : "") << "\"" << metrics_[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics_[i].unit << "\"}";
    }
    os << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int64_t
Tracer::begin(const std::string &name, int64_t parent,
              const std::string &item)
{
    const double now = nowMs();
    return add(name, parent, now, now, item);
}

void
Tracer::end(int64_t id)
{
    if (id > 0)
        spans_[size_t(id - 1)].end_ms = nowMs();
}

int64_t
Tracer::add(const std::string &name, int64_t parent, double start_ms,
            double end_ms, const std::string &item)
{
    if (!on_)
        return 0;
    Span s;
    s.id = int64_t(spans_.size()) + 1;
    s.parent = parent;
    s.name = name;
    s.start_ms = start_ms;
    s.end_ms = end_ms;
    s.item = item;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::write(const fs::path &path) const
{
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    std::ofstream out(path);
    char buf[128];
    for (const Span &s : spans_) {
        std::snprintf(buf, sizeof(buf),
                      "\"start_ms\":%.6f,\"end_ms\":%.6f", s.start_ms,
                      s.end_ms);
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\"," << buf << ",\"item\":\""
            << s.item << "\"}\n";
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

void
reportSetup(Report &report, const std::vector<SetupTimes> &reps, bool trace)
{
    std::vector<double> total, inputs, pulses;
    for (const SetupTimes &s : reps) {
        total.push_back(s.total_ms);
        inputs.push_back(s.inputs_ms);
        pulses.push_back(s.pulse_library_ms);
    }
    const std::string note =
        "median of " + std::to_string(reps.size()) + " set-ups";
    if (!trace) {
        report.add("setup_s", median(total) / 1e3, "s", note);
        return;
    }
    report.add("setup.inputs_ms", median(inputs), "ms", note);
    report.add("setup.pulse_library_ms", median(pulses), "ms", note);
}

void
reportLatency(Report &report, const std::string &name,
              const std::vector<double> &samples_ms, double q,
              const std::string &what)
{
    const Percentile p = percentile(samples_ms, q);
    report.add(name, p.value, "ms",
               what + ", n=" + std::to_string(p.samples) + ", " +
                   std::to_string(p.beyond) + " beyond");
}

double
calibrationMs()
{
    constexpr size_t kAmps = 2048; // 32 KiB of interleaved re/im: L1/L2
    static std::vector<double> psi(2 * kAmps, 0.5);
    static volatile double sink = 0.0;
    // Multiplying by a unit-modulus phase keeps the amplitudes bounded
    // (no denormals however often the kernel runs).
    const double c = 0.6, s = 0.8;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 400; ++rep)
        for (size_t i = 0; i < 2 * kAmps; i += 2) {
            const double re = psi[i], im = psi[i + 1];
            psi[i] = c * re - s * im;
            psi[i + 1] = s * re + c * im;
        }
    const double ms = msSince(t0);
    sink = sink + psi[0];
    return ms;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
loadPulseLibraries()
{
    qzz::core::clearPulseLibraryCache();
    const auto t0 = Clock::now();
    for (auto m : {qzz::core::PulseMethod::Gaussian,
                   qzz::core::PulseMethod::OptCtrl,
                   qzz::core::PulseMethod::Pert})
        qzz::core::getPulseLibraryShared(m);
    return msSince(t0);
}

} // namespace perfbench

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

/** The calibration keys the three pulse libraries load.  A missing one
 *  would start a multi-minute pulse optimization inside the run. */
const char *const kCalibrationKeys[] = {
    "v4_OptCtrl_sx_h5_T2000", "v4_OptCtrl_id_h5_T2000",
    "v4_OptCtrl_rzx_h5_T2000", "v4_Pert_sx_h5_T2000",
    "v4_Pert_id_h5_T2000",    "v4_Pert_rzx_h5_T2000",
};

/** Removes the per-run scratch directory on every exit path. */
struct ScratchDir
{
    fs::path path;
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "qzz_perfbench: " << why
              << "\nusage: qzz_perfbench --workload W --seed N --seconds S"
                 " --trace 0|1 [--root DIR]\n"
                 "       qzz_perfbench --record W --variants N [--reference FILE]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string record;
    int variants = 0;
    fs::path root = fs::current_path();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::stoull(v);
        else if (a == "--seconds")
            opt.seconds = std::stod(v);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--root")
            root = fs::absolute(v);
        else if (a == "--record")
            record = v;
        else if (a == "--variants")
            variants = std::stoi(v);
        else if (a == "--reference")
            opt.reference = fs::absolute(v);
        else
            usage("unknown option " + a);
    }
    const std::string workload = record.empty() ? opt.workload : record;
    if (workload != "paper_sv" && workload != "paper_dm" &&
        (workload != "serve_mixed" || !record.empty()))
        usage("unknown workload '" + workload + "'");
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");

    // Hermetic disk state: a fresh pulse cache (falling back read-only
    // to the committed calib/ store) and scratch dir, removed at exit.
    for (const char *key : kCalibrationKeys)
        if (!fs::exists(fs::path(PERFBENCH_CALIB_DIR) /
                        (std::string(key) + ".txt"))) {
            std::cerr << "qzz_perfbench: calibration key " << key
                      << " missing from " << PERFBENCH_CALIB_DIR << "\n";
            return 3;
        }
    ScratchDir scratch{root / ".bench_tmp" /
                       (workload + "-" + std::to_string(::getpid()))};
    fs::create_directories(scratch.path / "pulse_cache");
    ::setenv("QZZ_PULSE_CACHE", (scratch.path / "pulse_cache").c_str(), 1);
    opt.tmp_dir = scratch.path;
    opt.out_dir = root / ".bench_out";
    if (opt.reference.empty())
        opt.reference = fs::path(PERFBENCH_SOURCE_DIR) / "reference.txt";

    try {
        if (!record.empty()) {
            recordPaperReference(record, variants, opt.reference);
            return 0;
        }
        Report report;
        if (opt.workload == "serve_mixed")
            runServe(opt, report);
        else
            runPaper(opt, report);
        if (!fs::is_empty(scratch.path / "pulse_cache"))
            report.fail("a pulse optimization ran during the run");
        report.print(std::cout);
    } catch (const std::exception &e) {
        std::cerr << "qzz_perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
