/**
 * @file
 * The compiler: the paper's framework (Fig. 2) as four fixed stages —
 * route to the topology, lower to the native gate set, schedule,
 * attach pulses.
 *
 *  - Compiler         one device and one configuration, built by
 *                     CompilerBuilder; compile() / compileSegments() /
 *                     compileBatch().
 *  - CompileResult    the program plus per-stage diagnostics and a
 *                     structured status channel.
 *
 * The pulse method and the scheduling policy are values
 * (CompileOptions::pulse, CompileOptions::sched).  The schedule stage
 * calls core::schedule() (core/sched_walk.h), whose one switch picks
 * ParSched or the frontier walk with the policy's cut source; build()
 * builds the policy's CutTables once.  The pulse library is the
 * method's process-wide one (getPulseLibraryShared()) unless
 * CompilerBuilder::pulseLibrary() injects another, e.g. a
 * DD-substituted one (substituteIdentity()).
 *
 * Stages report failures through the status channel instead of
 * throwing; unwrapOrThrow() turns a failed result into
 * fatal()/panic() for callers that want an exception.
 *
 * A Compiler is immutable after build() and safe to share across
 * threads: compileBatch() compiles each circuit on a small thread
 * pool while sharing the device routing tables, the cut tables and
 * the pulse library.
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

/** Wall time and work counters of one executed stage. */
struct StageDiagnostics
{
    /** Stage name: "route", "lower", "schedule" or "pulses". */
    std::string stage;
    /** Wall-clock time spent in the stage (ms). */
    double wall_ms = 0.0;
    /** Offset of the stage start from the start of the compilation
     *  (ms) — wall_ms laid out on a common timeline, so callers (the
     *  service's trace spans) can reconstruct per-stage intervals. */
    double start_ms = 0.0;
    /** Schedule layers appended by the stage (schedule stage). */
    int layers_added = 0;
    /** Native gates appended by the stage (lower stage). */
    int gates_added = 0;
};

/** Per-compilation diagnostics accumulated across the pipeline. */
struct CompileDiagnostics
{
    /** One entry per executed stage, in execution order. */
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

/** Structured error/status channel of a compilation. */
struct CompileStatus
{
    CompileStatusCode code = CompileStatusCode::Ok;
    /** Name of the stage that failed (empty on success or
     *  validation). */
    std::string pass;
    /** Human-readable failure description. */
    std::string message;

    bool ok() const { return code == CompileStatusCode::Ok; }
};

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
     * circuit compiles on its own working state, and results land in
     * input order.  Output is identical to calling compile()
     * sequentially.
     */
    BatchResult
    compileBatch(const std::vector<ckt::QuantumCircuit> &circuits,
                 const BatchOptions &opt = {}) const;

    const dev::Device &device() const { return device_; }
    const CompileOptions &options() const { return options_; }

  private:
    friend class CompilerBuilder;
    Compiler(dev::Device device, CompileOptions options,
             std::shared_ptr<const CutTables> cut_tables,
             std::shared_ptr<const pulse::PulseLibrary> library);

    dev::Device device_;
    CompileOptions options_;
    std::shared_ptr<const CutTables> cut_tables_;
    /** The injected library; nullptr = the method's shared one. */
    std::shared_ptr<const pulse::PulseLibrary> library_;
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
 * pulseLibrary() injects a library in place of the method's own.
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

    /**
     * Compile with @p library (non-null; fatal() otherwise) instead
     * of getPulseLibraryShared(options.pulse).  The program still
     * records options.pulse as its method.
     */
    CompilerBuilder &
    pulseLibrary(std::shared_ptr<const pulse::PulseLibrary> library);

    /** Assemble the Compiler (builds the policy's CutTables). */
    Compiler build() const;

  private:
    dev::Device device_;
    CompileOptions options_;
    std::shared_ptr<const pulse::PulseLibrary> library_;
};

} // namespace qzz::core

#endif // QZZ_CORE_COMPILER_H
