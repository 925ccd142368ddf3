#include "core/compiler.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "circuit/decompose.h"
#include "common/error.h"
#include "common/parallel.h"

namespace qzz::core {

namespace {

using Clock = std::chrono::steady_clock;

double
millisecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/**
 * The working state of one compilation.  Inputs are references owned
 * by the Compiler; the rest is private to this compilation, so
 * concurrent compilations never share a context.
 */
struct CompileState
{
    const dev::Device &device;
    const CompileOptions &options;
    /** Per-device tables of options.sched (nullptr for ParSched). */
    const CutTables *cut_tables;
    /** The pulse library; the schedule stage fills it in when the
     *  Compiler has none injected. */
    std::shared_ptr<const pulse::PulseLibrary> library;

    /** Barrier-separated input segments (one for a plain compile). */
    std::vector<ckt::QuantumCircuit> segments;
    /** Routed segments over physical qubits (route stage). */
    std::vector<ckt::QuantumCircuit> routed_segments{};
    /** Native-gate segments (lower stage). */
    std::vector<ckt::QuantumCircuit> native_segments{};
    /** final_layout[logical] = physical qubit after the last segment. */
    std::vector<int> final_layout{};
    /** SWAPs inserted so far. */
    int swaps_inserted = 0;
    /** The program being assembled (native, schedule, library). */
    CompiledProgram program;
};

/** Route every segment to the topology, threading the layout. */
void
routeStage(CompileState &ctx)
{
    const int logical_qubits = ctx.segments.front().numQubits();
    // The permutation left by one segment's SWAPs is the next
    // segment's initial layout.
    std::vector<int> layout = ctx.final_layout;
    for (const ckt::QuantumCircuit &segment : ctx.segments) {
        require(segment.numQubits() == logical_qubits,
                "route: register size mismatch between segments");
        ckt::RoutedCircuit routed =
            ckt::routeCircuit(segment, ctx.device.graph(), layout);
        layout = routed.final_layout;
        ctx.swaps_inserted += routed.swaps_inserted;
        ctx.routed_segments.push_back(std::move(routed.circuit));
    }
    ctx.final_layout = std::move(layout);
}

/** Lower routed segments to the native gate set. */
void
lowerStage(CompileState &ctx)
{
    ctx.program.native = ckt::QuantumCircuit(
        ctx.device.numQubits(), ctx.segments.front().name());
    for (const ckt::QuantumCircuit &routed : ctx.routed_segments) {
        ckt::QuantumCircuit native = ckt::decomposeToNative(routed);
        ensure(ckt::respectsConnectivity(native, ctx.device.graph()),
               "lower: connectivity violated after decomposition");
        for (const ckt::Gate &g : native.gates())
            ctx.program.native.add(g);
        ctx.native_segments.push_back(std::move(native));
    }
}

/** Layer each native segment with core::schedule() under
 *  options.sched. */
void
scheduleStage(CompileState &ctx)
{
    // Durations come from the pulse library (e.g. DCG stretches SX to
    // 120 ns), so the library is acquired here even though the pulses
    // stage attaches it.
    if (!ctx.library)
        ctx.library = getPulseLibraryShared(ctx.options.pulse);
    const GateDurations durations =
        GateDurations::fromLibrary(*ctx.library);
    ctx.program.schedule.num_qubits = ctx.device.numQubits();
    for (const ckt::QuantumCircuit &native : ctx.native_segments) {
        Schedule sched =
            schedule(ctx.options.sched, native, ctx.device, durations,
                     ctx.options.zzx, ctx.cut_tables);
        for (Layer &layer : sched.layers)
            ctx.program.schedule.layers.push_back(std::move(layer));
    }
}

/** Attach the pulse library to the compiled program. */
void
pulsesStage(CompileState &ctx)
{
    ctx.program.library = ctx.library;
}

/** The paper's pipeline, in order. */
constexpr struct
{
    const char *name;
    void (*run)(CompileState &);
} kStages[] = {
    {"route", routeStage},
    {"lower", lowerStage},
    {"schedule", scheduleStage},
    {"pulses", pulsesStage},
};

} // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

CompiledProgram
unwrapOrThrow(CompileResult result)
{
    if (result.ok())
        return std::move(result.program);
    if (result.status.code == CompileStatusCode::Internal)
        panic(result.status.message);
    fatal(result.status.message);
}

bool
BatchResult::allOk() const
{
    return std::all_of(results.begin(), results.end(),
                       [](const CompileResult &r) { return r.ok(); });
}

Compiler::Compiler(dev::Device device, CompileOptions options,
                   std::shared_ptr<const CutTables> cut_tables,
                   std::shared_ptr<const pulse::PulseLibrary> library)
    : device_(std::move(device)), options_(options),
      cut_tables_(std::move(cut_tables)), library_(std::move(library))
{
}

CompileResult
Compiler::compile(const ckt::QuantumCircuit &circuit) const
{
    return compileSegments({circuit});
}

CompileResult
Compiler::compileSegments(
    std::vector<ckt::QuantumCircuit> segments) const
{
    CompileResult out;
    out.program.pulse_method = options_.pulse;
    out.program.sched_policy = options_.sched;
    out.program.calib_epoch = device_.calibration().epoch;
    if (segments.empty()) {
        out.status = {CompileStatusCode::InvalidInput, "",
                      "compileSegments: no segments given"};
        return out;
    }

    CompileState ctx{.device = device_,
                     .options = options_,
                     .cut_tables = cut_tables_.get(),
                     .library = library_,
                     .segments = std::move(segments),
                     .program = std::move(out.program)};
    CompileDiagnostics &diag = out.diagnostics;
    const auto compile_start = Clock::now();
    for (const auto &[name, run] : kStages) {
        StageDiagnostics stage;
        stage.stage = name;
        const auto layers_before = ctx.program.schedule.layers.size();
        const auto gates_before = ctx.program.native.size();
        const auto stage_start = Clock::now();
        stage.start_ms = millisecondsSince(compile_start);
        try {
            run(ctx);
        } catch (const UserError &e) {
            out.status = {CompileStatusCode::InvalidInput, name, e.what()};
        } catch (const InternalError &e) {
            out.status = {CompileStatusCode::Internal, name, e.what()};
        } catch (const std::exception &e) {
            // A std::bad_alloc, or a failure while building a pulse
            // library, must land on the status channel: escaping a
            // compileBatch() worker thread would std::terminate.
            out.status = {CompileStatusCode::Internal, name, e.what()};
        }
        stage.wall_ms = millisecondsSince(stage_start);
        stage.layers_added =
            int(ctx.program.schedule.layers.size() - layers_before);
        stage.gates_added =
            int(ctx.program.native.size() - gates_before);
        diag.stages.push_back(std::move(stage));
        if (!out.status.ok())
            break;
    }
    diag.total_ms = millisecondsSince(compile_start);
    diag.swaps_inserted = ctx.swaps_inserted;
    ctx.program.final_layout = std::move(ctx.final_layout);
    if (out.status.ok()) {
        const Schedule &sched = ctx.program.schedule;
        diag.physical_layers = sched.physicalLayerCount();
        diag.mean_nc = sched.meanNc();
        diag.max_nq = sched.maxNq();
        diag.execution_time_ns = sched.executionTime();
        diag.mean_residual_zz = meanResidualZz(sched, device_.couplings());
    }
    out.program = std::move(ctx.program);
    return out;
}

BatchResult
Compiler::compileBatch(const std::vector<ckt::QuantumCircuit> &circuits,
                       const BatchOptions &opt) const
{
    BatchResult out;
    out.results.resize(circuits.size());

    int threads = opt.num_threads;
    if (threads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? int(hw) : 4;
    }
    threads = std::max(1, std::min<int>(threads, int(circuits.size())));

    const auto start = Clock::now();
    // Warm the shared pulse library before fanning out, so the
    // workers never serialize on a cold calibration build; a failure
    // here is surfaced per-circuit through the status channel.
    if (!library_) {
        try {
            getPulseLibraryShared(options_.pulse);
        } catch (const std::exception &) {
        }
    }

    // Fan out over the shared work pool (one circuit per block) —
    // repeated batches reuse the process-wide workers instead of
    // spawning a fresh std::thread set per call.
    common::parallelFor(
        0, circuits.size(), 1,
        [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                out.results[i] = compile(circuits[i]);
        },
        threads);

    out.wall_ms = millisecondsSince(start);
    out.threads_used = threads;
    return out;
}

// ---------------------------------------------------------------------------
// CompilerBuilder
// ---------------------------------------------------------------------------

CompilerBuilder &
CompilerBuilder::options(const CompileOptions &opt)
{
    options_ = opt;
    return *this;
}

CompilerBuilder &
CompilerBuilder::pulseMethod(PulseMethod m)
{
    options_.pulse = m;
    return *this;
}

CompilerBuilder &
CompilerBuilder::schedPolicy(SchedPolicy p)
{
    options_.sched = p;
    return *this;
}

CompilerBuilder &
CompilerBuilder::pulseLibrary(
    std::shared_ptr<const pulse::PulseLibrary> library)
{
    require(library != nullptr, "CompilerBuilder: null pulse library");
    library_ = std::move(library);
    return *this;
}

Compiler
CompilerBuilder::build() const
{
    std::shared_ptr<const CutTables> cut_tables;
    if (options_.sched != SchedPolicy::Par)
        cut_tables = std::make_shared<const CutTables>(device_,
                                                       options_.sched);
    return Compiler(device_, options_, std::move(cut_tables), library_);
}

} // namespace qzz::core
