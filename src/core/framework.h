/**
 * @file
 * The co-optimization framework (Fig. 2 of the paper): one entry point
 * that takes a logical circuit and a device and produces an executable
 * pulse schedule under a chosen (pulse method x scheduling policy)
 * configuration.
 *
 * Pipeline: route to the topology -> lower to the native gate set ->
 * schedule (ParSched or ZZXSched) -> attach the pulse library.
 *
 * @note This header holds the vocabulary of a compilation — the
 * policies, the options and the compiled program.  The pipeline runs
 * in core::Compiler (core/compiler.h); its schedule stage calls
 * core::schedule() (core/sched_walk.h), the one place a SchedPolicy
 * picks a schedule.
 */

#ifndef QZZ_CORE_FRAMEWORK_H
#define QZZ_CORE_FRAMEWORK_H

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/router.h"
#include "core/par_sched.h"
#include "core/pulse_opt.h"
#include "core/zzx_sched.h"

namespace qzz::core {

/** Scheduling policies compared in the paper (plus the
 *  calibration-weighted extension; see docs/architecture.md). */
enum class SchedPolicy
{
    Par, ///< maximal parallelism (baseline)
    Zzx, ///< ZZ-aware co-optimized scheduling
    /** ZZXSched with the suppression objective weighted by the
     *  device snapshot's calibrated per-edge ZZ rates; reproduces Zzx
     *  bit-identically on uniform snapshots. */
    ZzxWeighted,
    /** Solver-optimal per-layer cuts by branch-and-bound
     *  (core::ExactCutSolver) — the optimality oracle the heuristics
     *  are measured against.  Exponential worst case; intended for
     *  small devices. */
    Exact,
    /** ZzxWeighted with per-edge accumulated-ZZ state carried across
     *  layer boundaries: rotates the unavoidable residual across
     *  couplings instead of revisiting the same ones. */
    CycleAware,
};

/** Display name of a policy. */
std::string schedPolicyName(SchedPolicy p);

/**
 * Parse a policy name (inverse of schedPolicyName()).  Accepts the
 * display names plus the enum spellings, case-insensitively
 * ("ParSched", "Par", "ZZXSched", "Zzx"); nullopt when unknown.
 */
std::optional<SchedPolicy> schedPolicyFromName(std::string_view name);

/** Every display name schedPolicyFromName() accepts canonically, in
 *  enum order — for CLI validation messages and --help text. */
const std::vector<std::string> &schedPolicyNames();

/** One compilation configuration, e.g. {Pert, Zzx}. */
struct CompileOptions
{
    PulseMethod pulse = PulseMethod::Pert;
    SchedPolicy sched = SchedPolicy::Zzx;
    /** Options for ZZXSched (ignored by ParSched). */
    ZzxOptions zzx;
};

/** A fully compiled program, ready for pulse-level simulation. */
struct CompiledProgram
{
    /** The routed, native-gate circuit over device qubits. */
    ckt::QuantumCircuit native;
    /** The layered schedule. */
    Schedule schedule;
    /** Pulse programs for each native gate.  Shared ownership: the
     *  program keeps its library alive independent of the
     *  process-wide cache (clearPulseLibraryCache() cannot dangle
     *  it). */
    std::shared_ptr<const pulse::PulseLibrary> library;
    PulseMethod pulse_method = PulseMethod::Gaussian;
    SchedPolicy sched_policy = SchedPolicy::Par;
    /** final_layout[logical] = physical qubit after the last segment
     *  (the routing permutation; empty if routing did not run). */
    std::vector<int> final_layout;
    /** Epoch of the calibration snapshot the program was compiled
     *  against (dev::Calibration::epoch) — versions persisted
     *  artifacts by recalibration. */
    uint64_t calib_epoch = 0;
};

/**
 * Dynamical-decoupling substitution (Sec. 8): replace a library's
 * identity program (used for supplementation) with a caller-provided
 * DD sequence, e.g. the DCG identity.
 */
pulse::PulseLibrary substituteIdentity(const pulse::PulseLibrary &base,
                                       pulse::PulseProgram dd_identity);

} // namespace qzz::core

#endif // QZZ_CORE_FRAMEWORK_H
