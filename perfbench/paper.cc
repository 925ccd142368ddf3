// The paper workloads: the fig20 cells on the state vector (paper_sv)
// and the fig23 cells at T1 = T2 = 100 us on the density matrix
// (paper_dm), each cell run route -> lower -> schedule -> pulses ->
// Strang simulation -> fidelity by calling the pieces that
// exp::evaluateFidelity* composes, one at a time.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "bench.h"
#include "circuit/benchmarks.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/compiler.h"
#include "exp/pipeline.h"
#include "sim/ideal_sim.h"
#include "sim/lindblad.h"
#include "sim/pulse_sim.h"
#include "sim/sim_metrics.h"

namespace perfbench {

using namespace qzz;

namespace {

/** The workload seed selects one of this many recorded input
 *  variants (seed mod kVariants), so every seed has a reference. */
constexpr int kVariants = 16;

/** Seed of the paper suite's circuits (exp::SuiteConfig::seed). */
constexpr uint64_t kSuiteSeed = 20220215;

/** Strang step of figs 20 and 23 (ns). */
constexpr double kDt = 0.1;

/** Coherence point of paper_dm (us). */
constexpr double kCoherenceUs = 100.0;

/** Untraced passes per run at least; each cell reports its fastest. */
constexpr int kMinPasses = 2;

/** Fidelity agreement required against the recorded reference. */
constexpr double kFidelityTolerance = 1e-6;

/** Set-up repetitions: a paper set-up takes milliseconds, so its
 *  median needs more of them than serve_mixed's. */
constexpr int kPaperSetupReps = 25;

struct Instance
{
    std::string label;
    ckt::QuantumCircuit circuit;
    dev::Device device;
};

struct Cell
{
    const Instance *instance;
    core::CompileOptions options;
    std::string config;
    std::string item;
};

const core::CompileOptions kConfigs[] = {
    {core::PulseMethod::Gaussian, core::SchedPolicy::Par, {}},
    {core::PulseMethod::OptCtrl, core::SchedPolicy::Zzx, {}},
    {core::PulseMethod::Pert, core::SchedPolicy::Zzx, {}},
};

struct Inputs
{
    std::vector<Instance> instances;
    std::vector<Cell> cells;
};

/** Which instances (by qubit count) an input set keeps. */
enum class Sizes
{
    All,         ///< fig20: every paper instance
    SixQubit,    ///< fig23: the 6-qubit instances
    FourQubit,   ///< density probe
    OnePerSize,  ///< state-vector probe: first instance of each size
};

/**
 * The circuits are the paper suite of figs 20-24: ckt::paperBenchmarkSuite
 * under the suite's fixed seed, drawn as exp::buildSuite() draws them.
 * Each grid device is derived from (variant, n) alone, so the hardware
 * of one size never depends on which instances are kept.  Only the
 * devices' ZZ couplings vary with the variant, so every variant does
 * the same compile and simulation work.
 */
Inputs
makeInputs(uint64_t variant, Sizes sizes, bool density,
           const std::vector<int> &config_indices)
{
    Rng master(kSuiteSeed);
    Rng circuit_rng = master.split();
    std::vector<ckt::BenchmarkInstance> suite =
        ckt::paperBenchmarkSuite(circuit_rng);
    Inputs in;
    std::vector<int> seen;
    for (auto &b : suite) {
        const int n = b.circuit.numQubits();
        bool keep = sizes == Sizes::All ||
                    (sizes == Sizes::SixQubit && n == 6) ||
                    (sizes == Sizes::FourQubit && n == 4);
        if (sizes == Sizes::OnePerSize) {
            keep = std::find(seen.begin(), seen.end(), n) == seen.end();
            seen.push_back(n);
        }
        if (!keep)
            continue;
        Rng device_rng(splitmix(splitmix(variant) + uint64_t(n)));
        dev::Device device =
            dev::Device::gridForQubits(n, dev::DeviceParams{}, device_rng);
        if (density)
            device = device.withCoherence(us(kCoherenceUs),
                                          us(kCoherenceUs));
        in.instances.push_back(
            {b.label, std::move(b.circuit), std::move(device)});
    }
    for (const Instance &inst : in.instances)
        for (int c : config_indices) {
            const std::string config = exp::configName(kConfigs[c]);
            in.cells.push_back({&inst, kConfigs[c], config,
                                inst.label + "/" + config});
        }
    return in;
}

std::vector<int>
allConfigs()
{
    return {0, 1, 2};
}

/** Per-pass sums gathered from traced cells. */
struct LayerTotals
{
    double sim_ms = 0.0;
    std::map<int, double> sim_ms_by_n;
    double ideal_ms = 0.0;
    double steps = 0.0;
    double elem_steps = 0.0; ///< sum of steps * register elements
    double phase_ns = 0.0;
    double gate_ns = 0.0;
    double decoh_ns = 0.0;
    double native_gates = 0.0;
    double physical_layers = 0.0;
    double swaps = 0.0;
};

struct CellOutcome
{
    std::string error;
    double fidelity = 0.0;
    /** Compiler build + compile. */
    double compile_ms = 0.0;
    double wall_ms = 0.0;
};

/** Kernel instruments of one simulator flavor, read as deltas. */
struct KernelReading
{
    double steps = 0.0;
    double phase_ns = 0.0;
    double gate_ns = 0.0;
    double decoh_ns = 0.0;

    static KernelReading
    now(bool density)
    {
        const sim::SimMetrics m =
            sim::simMetrics(density ? "density" : "statevector");
        KernelReading r;
        r.steps = double(m.steps->value());
        r.phase_ns = m.phase_ns->snapshot().sum;
        r.gate_ns = m.gate_ns->snapshot().sum;
        r.decoh_ns = m.decoh_ns->snapshot().sum;
        return r;
    }
};

/** One cell end to end; traced cells also fill @p totals. */
CellOutcome
runCell(const Cell &cell, bool density, Tracer &tr, int64_t parent,
        LayerTotals *totals)
{
    sim::PulseSimOptions sopt;
    sopt.dt = kDt;
    const Instance &inst = *cell.instance;
    const int n = inst.circuit.numQubits();
    CellOutcome out;
    const auto t0 = Clock::now();
    Scope cell_span(tr, "cell", parent, cell.item);

    std::optional<core::Compiler> compiler;
    {
        Scope s(tr, "build", cell_span.id(), cell.item);
        compiler.emplace(core::CompilerBuilder(inst.device)
                             .options(cell.options)
                             .build());
    }
    core::CompileResult result;
    {
        Scope s(tr, "compile", cell_span.id(), cell.item);
        const double start = tr.on() ? tr.nowMs() : 0.0;
        result = compiler->compile(inst.circuit);
        if (tr.on())
            for (const core::StageDiagnostics &st :
                 result.diagnostics.stages)
                tr.add(st.stage, s.id(), start + st.start_ms,
                       start + st.start_ms + st.wall_ms, cell.item);
    }
    out.compile_ms = msSince(t0);
    if (!result.ok()) {
        out.error = cell.item + ": compile failed: " +
                    result.status.message;
        return out;
    }
    const core::CompiledProgram &prog = result.program;

    std::optional<KernelReading> before;
    if (totals)
        before = KernelReading::now(density);
    double sim_start = 0.0, sim_end = 0.0, ideal_ms = 0.0;
    if (!density) {
        std::optional<sim::StateVector> actual, ideal;
        sim_start = tr.nowMs();
        {
            Scope s(tr, "sim", cell_span.id(), cell.item);
            const sim::PulseScheduleSimulator simulator(
                compiler->device(), *prog.library, sopt);
            actual.emplace(simulator.run(prog.schedule));
        }
        sim_end = tr.nowMs();
        {
            Scope s(tr, "ideal", cell_span.id(), cell.item);
            ideal.emplace(sim::runIdealSchedule(prog.schedule));
        }
        ideal_ms = tr.nowMs() - sim_end;
        Scope s(tr, "fidelity", cell_span.id(), cell.item);
        out.fidelity = ideal->fidelity(*actual);
    } else {
        std::optional<sim::DensityMatrix> actual;
        std::optional<sim::StateVector> ideal;
        sim_start = tr.nowMs();
        {
            Scope s(tr, "sim", cell_span.id(), cell.item);
            const sim::DensityMatrixScheduleSimulator simulator(
                compiler->device(), *prog.library, sopt);
            actual.emplace(simulator.run(prog.schedule));
        }
        sim_end = tr.nowMs();
        {
            Scope s(tr, "ideal", cell_span.id(), cell.item);
            ideal.emplace(sim::runIdealSchedule(prog.schedule));
        }
        ideal_ms = tr.nowMs() - sim_end;
        Scope s(tr, "fidelity", cell_span.id(), cell.item);
        out.fidelity = actual->expectationPure(*ideal);
    }
    out.wall_ms = msSince(t0);

    if (totals) {
        const KernelReading after = KernelReading::now(density);
        const double sim_ms = sim_end - sim_start;
        const double steps = after.steps - before->steps;
        const double elems =
            std::pow(2.0, double(density ? 2 * n : n));
        totals->sim_ms += sim_ms;
        totals->sim_ms_by_n[n] += sim_ms;
        totals->ideal_ms += ideal_ms;
        totals->steps += steps;
        totals->elem_steps += steps * elems;
        totals->phase_ns += after.phase_ns - before->phase_ns;
        totals->gate_ns += after.gate_ns - before->gate_ns;
        totals->decoh_ns += after.decoh_ns - before->decoh_ns;
        for (const core::StageDiagnostics &st : result.diagnostics.stages)
            if (st.stage == "lower")
                totals->native_gates += st.gates_added;
        totals->physical_layers += result.diagnostics.physical_layers;
        totals->swaps += result.diagnostics.swaps_inserted;
    }
    if (!std::isfinite(out.fidelity) || out.fidelity < 0.0 ||
        out.fidelity > 1.0 + 1e-9)
        out.error = cell.item + ": fidelity out of range: " +
                    std::to_string(out.fidelity);
    return out;
}

// ---------------------------------------------------------------------------
// Reference fidelities
// ---------------------------------------------------------------------------

std::string
referenceKey(const std::string &workload, uint64_t variant,
             const std::string &item)
{
    return workload + " " + std::to_string(variant) + " " + item;
}

std::map<std::string, double>
loadReference(const std::filesystem::path &path)
{
    std::map<std::string, double> ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string workload, item;
        uint64_t variant = 0;
        double f = 0.0;
        if (ls >> workload >> variant >> item >> f)
            ref[referenceKey(workload, variant, item)] = f;
    }
    return ref;
}

// ---------------------------------------------------------------------------
// One pass over the cells
// ---------------------------------------------------------------------------

/** One pass.  In a normalized pass, suite_ms and the latency samples
 *  are rescaled to the reference host speed; wall_ms never is. */
struct PassResult
{
    /** Sum of cell times. */
    double suite_ms = 0.0;
    /** Pass wall clock, never normalized. */
    double wall_ms = 0.0;
    std::vector<double> cold_ms;
    std::vector<double> warm_ms;
    LayerTotals totals;
};

/**
 * Run every cell once, checking each fidelity against the reference
 * and Pert+ZZXSched >= Gau+ParSched per instance.
 */
PassResult
runPass(const Inputs &in, bool density, const std::string &workload,
        uint64_t variant, const std::map<std::string, double> *reference,
        bool normalize, Tracer &tr, Report &report)
{
    PassResult pass;
    const auto t0 = Clock::now();
    Scope pass_span(tr, "pass", 0, workload);
    std::map<const Instance *, std::map<std::string, double>> by_instance;
    double kernel_before = normalize ? calibrationMs() : 0.0;
    for (const Cell &cell : in.cells) {
        CellOutcome out = runCell(cell, density, tr, pass_span.id(),
                                  tr.on() ? &pass.totals : nullptr);
        double scale = 1.0;
        if (normalize) {
            const double kernel_after = calibrationMs();
            scale = 2.0 * kReferenceKernelMs / (kernel_before + kernel_after);
            kernel_before = kernel_after;
        }
        pass.suite_ms += out.wall_ms * scale;
        // A cold cell compiles its circuit; a warm one would find the
        // program already compiled, as a cache hit does in serve_mixed.
        pass.cold_ms.push_back(out.wall_ms * scale);
        pass.warm_ms.push_back((out.wall_ms - out.compile_ms) * scale);
        if (out.error.empty() && reference) {
            const auto it =
                reference->find(referenceKey(workload, variant, cell.item));
            if (it == reference->end())
                out.error = cell.item + ": no reference fidelity recorded";
            else if (std::fabs(out.fidelity - it->second) >
                     kFidelityTolerance) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              ": fidelity %.12f differs from reference "
                              "%.12f",
                              out.fidelity, it->second);
                out.error = cell.item + buf;
            }
        }
        by_instance[cell.instance][cell.config] = out.fidelity;
        report.operation(out.error);
    }
    pass.wall_ms = msSince(t0);
    const std::string base = exp::configName(kConfigs[0]);
    const std::string best = exp::configName(kConfigs[2]);
    for (const auto &[inst, fids] : by_instance) {
        const auto b = fids.find(base), p = fids.find(best);
        if (b != fids.end() && p != fids.end() && p->second < b->second)
            report.fail(inst->label + ": " + best + " fidelity " +
                        std::to_string(p->second) + " < " + base + " " +
                        std::to_string(b->second));
    }
    return pass;
}

void
addSimLayerMetrics(Report &report, const LayerTotals &t, bool density)
{
    const std::string p = density ? "sim.dm" : "sim.sv";
    report.add(p + "_ms", t.sim_ms, "ms", "simulator run() per pass");
    if (!density)
        for (int n : {4, 6, 9, 12}) {
            const auto it = t.sim_ms_by_n.find(n);
            report.add(p + "_ms.q" + std::to_string(n),
                       it == t.sim_ms_by_n.end() ? 0.0 : it->second, "ms");
        }
    report.add(p + "_steps", t.steps, "count", "Strang steps");
    report.add(density ? "sim.dm_ns_per_elem_step" : "sim.sv_ns_per_amp_step",
               t.elem_steps > 0.0 ? t.sim_ms * 1e6 / t.elem_steps : 0.0,
               "ns", density ? "sim time / sum steps*4^n"
                             : "sim time / sum steps*2^n");
    report.add(p + "_phase_ms", t.phase_ns * 1e-6, "ms",
               "qzz_sim_kernel_ns{kernel=phase} delta");
    report.add(p + "_gate_ms", t.gate_ns * 1e-6, "ms",
               "qzz_sim_kernel_ns{kernel=gate} delta");
    if (density)
        report.add(p + "_decoherence_ms", t.decoh_ns * 1e-6, "ms",
                   "qzz_sim_kernel_ns{kernel=decoherence} delta");
}

uint64_t
variantOf(uint64_t seed)
{
    return seed % uint64_t(kVariants);
}

/** Traced pass over a small probe input set: simulator layers only. */
void
probeSim(const RunOptions &opt, Sizes sizes, bool density, bool ideal,
         Report &report)
{
    const Inputs in = makeInputs(variantOf(opt.seed), sizes, density, {2});
    Tracer tr(true);
    const PassResult pass =
        runPass(in, density, "probe", 0, nullptr, false, tr, report);
    addSimLayerMetrics(report, pass.totals, density);
    if (ideal)
        report.add("sim.ideal_ms", pass.totals.ideal_ms, "ms",
                   "probe cells");
}

} // namespace

void
probeStateVectorLayers(const RunOptions &opt, bool ideal, Report &report)
{
    probeSim(opt, Sizes::OnePerSize, false, ideal, report);
}

void
probeDensityLayers(const RunOptions &opt, Report &report)
{
    probeSim(opt, Sizes::FourQubit, true, false, report);
}

void
runPaper(const RunOptions &opt, Report &report)
{
    const bool density = opt.workload == "paper_dm";
    const uint64_t variant = variantOf(opt.seed);
    const Sizes sizes = density ? Sizes::SixQubit : Sizes::All;

    // Set-up: inputs and the first pulse-library loads, repeated, each
    // normalized like the cells.
    std::vector<SetupTimes> setups;
    std::optional<Inputs> in;
    double kernel_before = calibrationMs();
    for (int r = 0; r < kPaperSetupReps; ++r) {
        SetupTimes s;
        const auto t0 = Clock::now();
        in.emplace(makeInputs(variant, sizes, density, allConfigs()));
        s.inputs_ms = msSince(t0);
        s.pulse_library_ms = loadPulseLibraries();
        s.total_ms = msSince(t0);
        const double kernel_after = calibrationMs();
        s.total_ms *= 2.0 * kReferenceKernelMs / (kernel_before + kernel_after);
        kernel_before = kernel_after;
        setups.push_back(s);
    }
    const std::map<std::string, double> reference =
        loadReference(opt.reference);

    // Untraced passes: at least kMinPasses, more while they fit in the
    // run time (traced runs repeat them as the tracing-overhead
    // baseline).
    Tracer off(false);
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    std::vector<double> pass_ms;
    for (;;) {
        const auto t0 = Clock::now();
        passes.push_back(runPass(*in, density, opt.workload, variant,
                                 &reference, true, off, report));
        pass_ms.push_back(msSince(t0));
        if (int(passes.size()) >= kMinPasses &&
            msSince(start) + median(pass_ms) > opt.seconds * 1e3)
            break;
    }

    // Each cell's fastest pass: a host slowdown only ever adds time, so
    // the per-cell minimum is the steadiest estimate of its cost.
    const size_t ncells = in->cells.size();
    std::vector<double> cold(ncells, HUGE_VAL), warm(ncells, HUGE_VAL);
    std::vector<double> suite_ms;
    for (const PassResult &p : passes) {
        suite_ms.push_back(p.suite_ms);
        for (size_t i = 0; i < ncells; ++i) {
            cold[i] = std::min(cold[i], p.cold_ms[i]);
            warm[i] = std::min(warm[i], p.warm_ms[i]);
        }
    }
    double best_suite_ms = 0.0;
    for (double ms : cold)
        best_suite_ms += ms;

    reportSetup(report, setups, opt.trace);
    if (!opt.trace) {
        char raw[64];
        std::snprintf(raw, sizeof(raw), "%.3f", median(pass_ms) / 1e3);
        const std::string passes_note =
            std::to_string(ncells) + " cells, each at its fastest of " +
            std::to_string(passes.size()) + " passes; raw pass wall " +
            raw + " s";
        report.add("suite_s", best_suite_ms / 1e3, "s", passes_note);
        report.add("req_per_s", double(ncells) / (best_suite_ms / 1e3),
                   "1/s", "cells per second");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        const std::string warm_what = "cell latency without its compile";
        const std::string cold_what = "cell latency, compile included";
        reportLatency(report, "warm_p50_ms", warm, 0.50, warm_what);
        reportLatency(report, "warm_p99_ms", warm, 0.99, warm_what);
        reportLatency(report, "cold_p50_ms", cold, 0.50, cold_what);
        reportLatency(report, "cold_p99_ms", cold, 0.99, cold_what);
        return;
    }

    // Traced pass: spans around every layer call.
    Tracer tr(true);
    const PassResult traced = runPass(*in, density, opt.workload, variant,
                                      &reference, true, tr, report);
    const auto total = totalTimeByName(tr.spans());
    const auto self = selfTimeByName(tr.spans());
    const LayerTotals &t = traced.totals;
    report.add("circuit.route_ms", timeOf(total, "route"), "ms", "per pass");
    report.add("circuit.lower_ms", timeOf(total, "lower"), "ms", "per pass");
    report.add("core.build_ms", timeOf(total, "build"), "ms",
               "CompilerBuilder::build per pass");
    report.add("core.compile_ms", timeOf(self, "compile"), "ms",
               "compile() self time (outside its stages)");
    report.add("core.schedule_ms", timeOf(total, "schedule"), "ms");
    report.add("core.pulses_ms", timeOf(total, "pulses"), "ms");
    report.add("core.native_gates", t.native_gates, "count");
    report.add("core.physical_layers", t.physical_layers, "count");
    report.add("core.swaps", t.swaps, "count");
    addSimLayerMetrics(report, t, density);
    report.add("sim.ideal_ms", timeOf(total, "ideal"), "ms", "per pass");
    const double covered = timeOf(total, "build") + timeOf(total, "compile") +
                           timeOf(total, "sim") + timeOf(total, "ideal") +
                           timeOf(total, "fidelity");
    const double coverage = covered / traced.wall_ms;
    report.add("trace.coverage", coverage, "ratio",
               "layer spans / traced pass wall time");
    if (std::fabs(coverage - 1.0) > 0.05)
        report.fail("trace: layer spans cover " +
                    std::to_string(coverage) + " of the pass (need 1 +- 0.05)");
    report.add("trace.overhead", traced.suite_ms / median(suite_ms),
               "ratio", "traced / untraced pass time");
    report.add("trace.spans", double(tr.spans().size()), "count");
    tr.write(opt.out_dir / (opt.workload + "-" + std::to_string(opt.seed) +
                            ".spans.jsonl"));

    // Layers this workload does not run come from small probes.
    if (density)
        probeStateVectorLayers(opt, false, report);
    else
        probeDensityLayers(opt, report);
    probeServiceLayers(opt, 60, report);
}

void
recordPaperReference(const std::string &workload, int variants,
                     const std::filesystem::path &path)
{
    const bool density = workload == "paper_dm";
    std::ofstream out(path, std::ios::app);
    for (int v = 0; v < std::min(variants, kVariants); ++v) {
        const Inputs in = makeInputs(uint64_t(v),
                                     density ? Sizes::SixQubit : Sizes::All,
                                     density, allConfigs());
        Tracer off(false);
        for (const Cell &cell : in.cells) {
            const CellOutcome o =
                runCell(cell, density, off, 0, nullptr);
            if (!o.error.empty())
                throw std::runtime_error(o.error);
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.15f", o.fidelity);
            out << workload << " " << v << " " << cell.item << " " << buf
                << "\n";
        }
        out.flush();
        std::cerr << "[record] " << workload << " variant " << v
                  << " done\n";
    }
}

} // namespace perfbench
