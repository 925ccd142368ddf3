/**
 * @file
 * Stage-based compilation API.
 *
 * The paper's framework (Fig. 2) is a four-stage pipeline — route to
 * the topology, lower to the native gate set, schedule, attach pulses.
 * This header makes that pipeline explicit and extensible:
 *
 *  - Pass            one pipeline stage operating on a CompileContext.
 *  - CompileContext  the state threaded through the passes (segments,
 *                    layout, native circuit, schedule, diagnostics,
 *                    status channel).
 *  - PulseProvider   pulse-library source with shared ownership
 *                    (process-wide calibration cache, or a fixed
 *                    injected library, e.g. a DD-substituted one).
 *  - Compiler        an immutable pipeline built by CompilerBuilder;
 *                    compile() / compileSegments() / compileBatch().
 *
 * The scheduling policy is a value, CompileOptions::sched: the
 * schedule stage calls core::schedule() (core/sched_walk.h), whose one
 * switch picks ParSched or the frontier walk with the policy's cut
 * source.  build() builds the policy's CutTables once.
 *
 * Passes report failures through the context's structured status
 * channel instead of throwing; unwrapOrThrow() turns a failed result
 * into fatal()/panic() for callers that want an exception.
 *
 * A Compiler is immutable after build() and safe to share across
 * threads: compileBatch() runs one CompileContext per circuit on a
 * small thread pool while sharing the device routing tables, the cut
 * tables and the pulse library.
 */

#ifndef QZZ_CORE_COMPILER_H
#define QZZ_CORE_COMPILER_H

#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/sched_walk.h"

namespace qzz::core {

// ---------------------------------------------------------------------------
// Diagnostics and status channel
// ---------------------------------------------------------------------------

/** Wall time and work counters of one executed pass. */
struct StageDiagnostics
{
    /** Pass name (e.g. "route", "schedule"). */
    std::string stage;
    /** Wall-clock time spent in the pass (ms). */
    double wall_ms = 0.0;
    /** Offset of the pass start from the start of the pass pipeline
     *  (ms) — wall_ms laid out on a common timeline, so callers (the
     *  service's trace spans) can reconstruct per-pass intervals. */
    double start_ms = 0.0;
    /** Schedule layers appended by the pass (schedule stage). */
    int layers_added = 0;
    /** Native gates appended by the pass (lower stage). */
    int gates_added = 0;
};

/** Per-compilation diagnostics accumulated across the pipeline. */
struct CompileDiagnostics
{
    /** One entry per executed pass, in execution order. */
    std::vector<StageDiagnostics> stages;
    /** End-to-end compile wall time (ms). */
    double total_ms = 0.0;
    /** SWAPs inserted by routing (summed over segments). */
    int swaps_inserted = 0;
    /** Non-virtual layer count of the final schedule. */
    int physical_layers = 0;
    /** Mean unsuppressed-coupling count per physical layer. */
    double mean_nc = 0.0;
    /** Worst largest-region size over physical layers. */
    int max_nq = 0;
    /** Total schedule duration (ns). */
    double execution_time_ns = 0.0;
    /** Mean calibrated residual ZZ rate per physical layer (rad/ns):
     *  the NC metric weighted by the device snapshot's per-edge ZZ
     *  strengths (see core::residualZzRate()). */
    double mean_residual_zz = 0.0;
};

/** Outcome category of a compilation. */
enum class CompileStatusCode
{
    Ok,           ///< compilation succeeded
    InvalidInput, ///< caller error (bad circuit/options); maps to fatal()
    Internal,     ///< violated library invariant; maps to panic()
};

/** Structured error/status channel carried by CompileContext. */
struct CompileStatus
{
    CompileStatusCode code = CompileStatusCode::Ok;
    /** Name of the pass that failed (empty on success or validation). */
    std::string pass;
    /** Human-readable failure description. */
    std::string message;

    bool ok() const { return code == CompileStatusCode::Ok; }
};

// ---------------------------------------------------------------------------
// Pulse providers
// ---------------------------------------------------------------------------

/**
 * Source of pulse libraries with explicit shared ownership: the
 * returned shared_ptr keeps the library alive for as long as any
 * CompiledProgram references it, independent of process-global
 * caches.  library() must be thread-safe (compileBatch() calls it
 * from worker threads).
 */
class PulseProvider
{
  public:
    virtual ~PulseProvider() = default;

    /** The library for @p method; never nullptr on success. */
    virtual std::shared_ptr<const pulse::PulseLibrary>
    library(PulseMethod method) = 0;
};

/**
 * The default provider: the process-wide memo backed by the on-disk
 * calibration store (see getPulseLibraryShared()).
 */
class CachedPulseProvider final : public PulseProvider
{
  public:
    std::shared_ptr<const pulse::PulseLibrary>
    library(PulseMethod method) override;
};

/**
 * Serves one fixed library regardless of the requested method.  Used
 * to inject substituted libraries (e.g. substituteIdentity() DD
 * sequences) or experimental calibrations into the pipeline.
 */
class FixedPulseProvider final : public PulseProvider
{
  public:
    explicit FixedPulseProvider(pulse::PulseLibrary lib)
        : lib_(std::make_shared<const pulse::PulseLibrary>(
              std::move(lib)))
    {
    }
    explicit FixedPulseProvider(
        std::shared_ptr<const pulse::PulseLibrary> lib)
        : lib_(std::move(lib))
    {
    }

    std::shared_ptr<const pulse::PulseLibrary>
    library(PulseMethod method) override
    {
        (void)method;
        return lib_;
    }

  private:
    std::shared_ptr<const pulse::PulseLibrary> lib_;
};

/** A fresh CachedPulseProvider. */
std::shared_ptr<PulseProvider> defaultPulseProvider();

// ---------------------------------------------------------------------------
// CompileContext and Pass
// ---------------------------------------------------------------------------

/**
 * The state a compilation threads through its passes.  Inputs
 * (device, options, services) are immutable references owned by the
 * Compiler; working state is private to this context, so concurrent
 * compilations never share a context.
 */
class CompileContext
{
  public:
    CompileContext(const dev::Device &device, const CompileOptions &opt,
                   const CutTables *cut_tables, PulseProvider &provider,
                   std::vector<ckt::QuantumCircuit> segments);

    /** @name Immutable inputs and services
     *  @{ */
    const dev::Device &device;
    const CompileOptions &options;
    /** Per-device tables of options.sched (nullptr for ParSched). */
    const CutTables *cut_tables;
    PulseProvider &provider;
    /** @} */

    /** @name Working state
     *  @{ */
    /** Barrier-separated input segments (one for a plain compile). */
    std::vector<ckt::QuantumCircuit> segments;
    /** Routed segments over physical qubits (set by RoutePass). */
    std::vector<ckt::QuantumCircuit> routed_segments;
    /** Native-gate segments (set by LowerPass). */
    std::vector<ckt::QuantumCircuit> native_segments;
    /** final_layout[logical] = physical qubit after the last segment. */
    std::vector<int> final_layout;
    /** SWAPs inserted so far. */
    int swaps_inserted = 0;
    /** Per-gate durations; valid once ensureLibrary() has run. */
    GateDurations durations;
    /** The program being assembled (native, schedule, library). */
    CompiledProgram program;
    /** @} */

    /** Structured error/status channel (replaces fatal()). */
    CompileStatus status;
    /** Per-stage diagnostics (wall time, layer/gate counts). */
    CompileDiagnostics diagnostics;

    /** Record a caller-input failure; later passes are skipped. */
    void fail(std::string pass, std::string message,
              CompileStatusCode code = CompileStatusCode::InvalidInput);

    /**
     * Fetch the pulse library from the provider (once) and derive the
     * gate durations from it.  Returns nullptr — with the status
     * channel set — when the provider has no library to give.
     */
    const pulse::PulseLibrary *ensureLibrary();
};

/**
 * One pipeline stage.  run() must be const and reentrant — pass
 * objects are shared between the compilations of a batch.  Failures
 * are reported via ctx.fail(); exceptions thrown by qzz primitives
 * (UserError / InternalError) are converted to a failed status by the
 * pass runner.
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Short stage name used in diagnostics, e.g. "route". */
    virtual std::string name() const = 0;

    /** Execute the stage on @p ctx. */
    virtual void run(CompileContext &ctx) const = 0;
};

/** Route every segment to the topology, threading the layout. */
class RoutePass final : public Pass
{
  public:
    std::string name() const override { return "route"; }
    void run(CompileContext &ctx) const override;
};

/** Lower routed segments to the native gate set. */
class LowerPass final : public Pass
{
  public:
    std::string name() const override { return "lower"; }
    void run(CompileContext &ctx) const override;
};

/** Layer each native segment with core::schedule() under
 *  options.sched. */
class SchedulePass final : public Pass
{
  public:
    std::string name() const override { return "schedule"; }
    void run(CompileContext &ctx) const override;
};

/** Attach the pulse library to the compiled program. */
class AttachPulsesPass final : public Pass
{
  public:
    std::string name() const override { return "pulses"; }
    void run(CompileContext &ctx) const override;
};

/** The paper's pipeline: route, lower, schedule, attach pulses. */
std::vector<std::shared_ptr<const Pass>> defaultPassPipeline();

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/** The outcome of one compilation. */
struct CompileResult
{
    /** Valid only when status.ok(). */
    CompiledProgram program;
    CompileDiagnostics diagnostics;
    CompileStatus status;

    bool ok() const { return status.ok(); }
};

/**
 * Surface a failed CompileResult as an exception — InvalidInput via
 * fatal() (UserError), Internal via panic() (InternalError) — or
 * return the program on success.  Used by the exp:: evaluators and by
 * callers that want a compile to throw.
 */
CompiledProgram unwrapOrThrow(CompileResult result);

/** compileBatch() controls. */
struct BatchOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int num_threads = 0;
};

/** The outcome of a batch compilation. */
struct BatchResult
{
    /** One result per input circuit, in input order. */
    std::vector<CompileResult> results;
    /** End-to-end batch wall time (ms). */
    double wall_ms = 0.0;
    /** Resolved thread cap applied to the batch (the shared pool may
     *  hold fewer workers on small machines). */
    int threads_used = 0;

    /** True when every circuit compiled successfully. */
    bool allOk() const;
};

/**
 * An immutable compilation pipeline bound to one device and one
 * configuration.  Built by CompilerBuilder; safe to share across
 * threads.  The scheduling policy's per-device tables (CutTables) are
 * built once by build() and reused by every compile.
 */
class Compiler
{
  public:
    /** Compile one circuit. */
    CompileResult compile(const ckt::QuantumCircuit &circuit) const;

    /**
     * Compile a barrier-separated circuit: each segment is routed,
     * lowered and scheduled independently, with the qubit layout
     * threaded from one segment to the next; the schedule is the
     * concatenation (Sec. 8 composition with outer crosstalk passes).
     */
    CompileResult
    compileSegments(std::vector<ckt::QuantumCircuit> segments) const;

    /**
     * Compile @p circuits concurrently on a thread pool.  Routing
     * tables, the cut tables and the pulse library are shared; each
     * circuit gets its own CompileContext, and results land in input
     * order.  Output is identical to calling compile() sequentially.
     */
    BatchResult
    compileBatch(const std::vector<ckt::QuantumCircuit> &circuits,
                 const BatchOptions &opt = {}) const;

    const dev::Device &device() const { return device_; }
    const CompileOptions &options() const { return options_; }
    const std::vector<std::shared_ptr<const Pass>> &passes() const
    {
        return passes_;
    }

  private:
    friend class CompilerBuilder;
    Compiler(dev::Device device, CompileOptions options,
             std::shared_ptr<const CutTables> cut_tables,
             std::shared_ptr<PulseProvider> provider,
             std::vector<std::shared_ptr<const Pass>> passes);

    dev::Device device_;
    CompileOptions options_;
    std::shared_ptr<const CutTables> cut_tables_;
    std::shared_ptr<PulseProvider> provider_;
    std::vector<std::shared_ptr<const Pass>> passes_;
};

/**
 * Fluent builder for Compiler.
 *
 * @code
 *   core::Compiler c = core::CompilerBuilder(device)
 *                          .pulseMethod(core::PulseMethod::Pert)
 *                          .schedPolicy(core::SchedPolicy::Zzx)
 *                          .build();
 *   core::CompileResult r = c.compile(circuit);
 * @endcode
 *
 * A custom PulseProvider overrides the enum-selected library;
 * addPass() appends extra stages after the default pipeline,
 * passes() replaces it wholesale.
 */
class CompilerBuilder
{
  public:
    explicit CompilerBuilder(dev::Device device)
        : device_(std::move(device))
    {
    }

    /** Adopt a whole CompileOptions (pulse, sched, zzx). */
    CompilerBuilder &options(const CompileOptions &opt);
    CompilerBuilder &pulseMethod(PulseMethod m);
    CompilerBuilder &schedPolicy(SchedPolicy p);
    CompilerBuilder &zzxOptions(const ZzxOptions &opt);

    /** Inject a pulse source (overrides pulseMethod() lookup). */
    CompilerBuilder &pulseProvider(std::shared_ptr<PulseProvider> p);
    /** Append a custom stage after the current pipeline. */
    CompilerBuilder &addPass(std::shared_ptr<const Pass> pass);
    /** Replace the pipeline wholesale. */
    CompilerBuilder &
    passes(std::vector<std::shared_ptr<const Pass>> passes);

    /** Assemble the Compiler (builds the policy's CutTables). */
    Compiler build() const;

  private:
    dev::Device device_;
    CompileOptions options_;
    std::shared_ptr<PulseProvider> provider_;
    std::vector<std::shared_ptr<const Pass>> extra_passes_;
    std::vector<std::shared_ptr<const Pass>> replaced_passes_;
    bool replace_pipeline_ = false;
};

} // namespace qzz::core

#endif // QZZ_CORE_COMPILER_H
