#include "core/compiler.h"

#include <algorithm>
#include <atomic>
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

} // namespace

// ---------------------------------------------------------------------------
// Pulse providers
// ---------------------------------------------------------------------------

std::shared_ptr<const pulse::PulseLibrary>
CachedPulseProvider::library(PulseMethod method)
{
    return getPulseLibraryShared(method);
}

std::shared_ptr<PulseProvider>
defaultPulseProvider()
{
    return std::make_shared<CachedPulseProvider>();
}

// ---------------------------------------------------------------------------
// CompileContext
// ---------------------------------------------------------------------------

CompileContext::CompileContext(const dev::Device &device,
                               const CompileOptions &opt,
                               const CutTables *cut_tables,
                               PulseProvider &provider,
                               std::vector<ckt::QuantumCircuit> segments)
    : device(device), options(opt), cut_tables(cut_tables),
      provider(provider), segments(std::move(segments))
{
}

void
CompileContext::fail(std::string pass, std::string message,
                     CompileStatusCode code)
{
    // The first failure wins; later passes are skipped anyway.
    if (!status.ok())
        return;
    status.code = code;
    status.pass = std::move(pass);
    status.message = std::move(message);
}

const pulse::PulseLibrary *
CompileContext::ensureLibrary()
{
    if (program.library)
        return program.library.get();
    std::shared_ptr<const pulse::PulseLibrary> lib =
        provider.library(options.pulse);
    if (!lib) {
        fail("pulses", "pulse provider returned no library");
        return nullptr;
    }
    program.library = std::move(lib);
    durations = GateDurations::fromLibrary(*program.library);
    return program.library.get();
}

// ---------------------------------------------------------------------------
// The default passes
// ---------------------------------------------------------------------------

void
RoutePass::run(CompileContext &ctx) const
{
    const int logical_qubits = ctx.segments.front().numQubits();
    // The permutation left by one segment's SWAPs is the next
    // segment's initial layout.
    std::vector<int> layout = ctx.final_layout;
    ctx.routed_segments.clear();
    for (const ckt::QuantumCircuit &segment : ctx.segments) {
        if (segment.numQubits() != logical_qubits) {
            ctx.fail(name(), "route: register size mismatch between "
                             "segments");
            return;
        }
        ckt::RoutedCircuit routed =
            ckt::routeCircuit(segment, ctx.device.graph(), layout);
        layout = routed.final_layout;
        ctx.swaps_inserted += routed.swaps_inserted;
        ctx.routed_segments.push_back(std::move(routed.circuit));
    }
    ctx.final_layout = std::move(layout);
}

void
LowerPass::run(CompileContext &ctx) const
{
    ctx.native_segments.clear();
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

void
SchedulePass::run(CompileContext &ctx) const
{
    // Durations come from the pulse library (e.g. DCG stretches SX to
    // 120 ns), so the library is acquired here even though it is only
    // attached to the program by AttachPulsesPass.
    if (!ctx.ensureLibrary())
        return;
    ctx.program.schedule = Schedule{};
    ctx.program.schedule.num_qubits = ctx.device.numQubits();
    for (const ckt::QuantumCircuit &native : ctx.native_segments) {
        Schedule sched =
            schedule(ctx.options.sched, native, ctx.device, ctx.durations,
                     ctx.options.zzx, ctx.cut_tables);
        for (Layer &layer : sched.layers)
            ctx.program.schedule.layers.push_back(std::move(layer));
    }
}

void
AttachPulsesPass::run(CompileContext &ctx) const
{
    ctx.ensureLibrary();
}

std::vector<std::shared_ptr<const Pass>>
defaultPassPipeline()
{
    return {std::make_shared<RoutePass>(),
            std::make_shared<LowerPass>(),
            std::make_shared<SchedulePass>(),
            std::make_shared<AttachPulsesPass>()};
}

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
                   std::shared_ptr<PulseProvider> provider,
                   std::vector<std::shared_ptr<const Pass>> passes)
    : device_(std::move(device)), options_(options),
      cut_tables_(std::move(cut_tables)), provider_(std::move(provider)),
      passes_(std::move(passes))
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

    CompileContext ctx(device_, options_, cut_tables_.get(), *provider_,
                       std::move(segments));
    ctx.program.pulse_method = options_.pulse;
    ctx.program.sched_policy = options_.sched;
    ctx.program.calib_epoch = device_.calibration().epoch;

    const auto compile_start = Clock::now();
    for (const std::shared_ptr<const Pass> &pass : passes_) {
        StageDiagnostics stage;
        stage.stage = pass->name();
        const auto layers_before = ctx.program.schedule.layers.size();
        const auto gates_before = ctx.program.native.size();
        const auto stage_start = Clock::now();
        stage.start_ms = millisecondsSince(compile_start);
        try {
            pass->run(ctx);
        } catch (const UserError &e) {
            ctx.fail(pass->name(), e.what(),
                     CompileStatusCode::InvalidInput);
        } catch (const InternalError &e) {
            ctx.fail(pass->name(), e.what(),
                     CompileStatusCode::Internal);
        } catch (const std::exception &e) {
            // Custom passes / providers may throw anything; map it to
            // the status channel rather than letting it escape a
            // compileBatch() worker thread (std::terminate).
            ctx.fail(pass->name(), e.what(),
                     CompileStatusCode::Internal);
        }
        stage.wall_ms = millisecondsSince(stage_start);
        stage.layers_added =
            int(ctx.program.schedule.layers.size() - layers_before);
        stage.gates_added =
            int(ctx.program.native.size() - gates_before);
        ctx.diagnostics.stages.push_back(std::move(stage));
        if (!ctx.status.ok())
            break;
    }
    ctx.diagnostics.total_ms = millisecondsSince(compile_start);
    ctx.diagnostics.swaps_inserted = ctx.swaps_inserted;
    ctx.program.final_layout = std::move(ctx.final_layout);
    if (ctx.status.ok()) {
        const Schedule &sched = ctx.program.schedule;
        ctx.diagnostics.physical_layers = sched.physicalLayerCount();
        ctx.diagnostics.mean_nc = sched.meanNc();
        ctx.diagnostics.max_nq = sched.maxNq();
        ctx.diagnostics.execution_time_ns = sched.executionTime();
        ctx.diagnostics.mean_residual_zz =
            meanResidualZz(sched, device_.couplings());
    }

    out.program = std::move(ctx.program);
    out.diagnostics = std::move(ctx.diagnostics);
    out.status = std::move(ctx.status);
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
    try {
        provider_->library(options_.pulse);
    } catch (const std::exception &) {
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
CompilerBuilder::zzxOptions(const ZzxOptions &opt)
{
    options_.zzx = opt;
    return *this;
}

CompilerBuilder &
CompilerBuilder::pulseProvider(std::shared_ptr<PulseProvider> p)
{
    provider_ = std::move(p);
    return *this;
}

CompilerBuilder &
CompilerBuilder::addPass(std::shared_ptr<const Pass> pass)
{
    extra_passes_.push_back(std::move(pass));
    return *this;
}

CompilerBuilder &
CompilerBuilder::passes(std::vector<std::shared_ptr<const Pass>> passes)
{
    replaced_passes_ = std::move(passes);
    replace_pipeline_ = true;
    return *this;
}

Compiler
CompilerBuilder::build() const
{
    std::shared_ptr<const CutTables> cut_tables;
    if (options_.sched != SchedPolicy::Par)
        cut_tables = std::make_shared<const CutTables>(device_,
                                                       options_.sched);
    std::shared_ptr<PulseProvider> provider =
        provider_ ? provider_ : defaultPulseProvider();
    std::vector<std::shared_ptr<const Pass>> pipeline =
        replace_pipeline_ ? replaced_passes_ : defaultPassPipeline();
    pipeline.insert(pipeline.end(), extra_passes_.begin(),
                    extra_passes_.end());
    return Compiler(device_, options_, std::move(cut_tables),
                    std::move(provider), std::move(pipeline));
}

} // namespace qzz::core
