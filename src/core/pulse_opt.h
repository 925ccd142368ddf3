/**
 * @file
 * Pulse-optimization front end: builds optimized pulse programs and
 * whole libraries for the OptCtrl and Pert methods.
 *
 * Pulses use the paper's 5-harmonic Fourier ansatz per channel
 * (Appendix A).  Optimization runs Adam over the Fourier
 * coefficients with a handful of random restarts.  Results are
 * memoized in-process and optionally persisted to a small on-disk
 * calibration store (QZZ_PULSE_CACHE env var, default
 * "qzz_pulse_cache/") so repeated benchmark runs skip the
 * optimization entirely — mirroring how a real system would keep a
 * calibration database.
 */

#ifndef QZZ_CORE_PULSE_OPT_H
#define QZZ_CORE_PULSE_OPT_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/objectives.h"
#include "core/optimizer.h"
#include "pulse/library.h"

namespace qzz::core {

/** The pulse methods evaluated by the paper. */
enum class PulseMethod
{
    Gaussian, ///< un-optimized baseline
    OptCtrl,  ///< quantum optimal control objective
    Pert,     ///< perturbation-theory objective (the paper's method)
    DCG,      ///< dynamically corrected gates
};

/** Display name of a method. */
std::string pulseMethodName(PulseMethod m);

/**
 * Parse a method name (inverse of pulseMethodName()).  Accepts the
 * display names case-insensitively plus the "Gau" abbreviation used
 * by exp::configName(); nullopt when unknown.
 */
std::optional<PulseMethod> pulseMethodFromName(std::string_view name);

/** Every display name pulseMethodFromName() accepts canonically, in
 *  enum order — for CLI validation messages and --help text. */
const std::vector<std::string> &pulseMethodNames();

/** Configuration of one pulse optimization. */
struct PulseOptConfig
{
    /** Gate duration (ns); paper: 20 ns. */
    double t_gate = 20.0;
    /** Fourier harmonics per channel; paper: 5. */
    int harmonics = 5;
    /** Objective settings (dt, weight, lambda samples, intra ZZ). */
    ObjectiveConfig objective;
    /** Adam settings. */
    AdamOptions adam;
    /** Random restarts (best kept). */
    int restarts = 2;
    /** Seed for restart initialization. */
    uint64_t seed = 20220215;
    /**
     * Optional warm start: flat coefficient vector used verbatim as
     * the first restart (e.g. seeding OptCtrl with the Pert solution,
     * as the library builder does).
     */
    std::vector<double> warm_start;
    /**
     * Polish phase: extra Adam iterations at a low learning rate with
     * the gate-implementation weight multiplied by polish_weight_gain,
     * run from the best solution.  Pushes the calibration error of the
     * returned pulse toward the integrator floor.  0 disables.
     */
    int polish_iters = 400;
    double polish_weight_gain = 20.0;
    /**
     * Smoothness regularizer sw * sum_ch sum_j j^2 (A_j / unit)^2
     * (0-based j: the fundamental is free).  Discourages high-harmonic
     * content, keeping the pulses band-limited so first-order DRAG
     * still cancels their leakage on real transmons (Fig. 18).
     */
    double smoothness_weight = 3e-4;
};

/**
 * Nominal per-method, per-gate optimization defaults, assuming the
 * paper's 200 kHz mean coupling: gate-implementation weight 10, a
 * cosine-decayed Adam schedule (lr 0.02 -> 0.002, <= 800 iters),
 * lambda_intra = 200 kHz, and for OptCtrl a small lambda sample grid
 * ({0.25, 0.75, 1.5} MHz; {0.3, 1.0} MHz for RZX).  RZX runs a
 * coarser objective dt (0.05 vs 0.02 ns) with a single restart.
 * These values reproduce the committed calib/ store entries — change
 * them only together with the cache-key version (docs/formats.md,
 * "Pulse-coefficient cache").
 */
PulseOptConfig defaultPulseOptConfig(PulseMethod method,
                                     pulse::PulseGate gate);

/** An optimized pulse and its diagnostics. */
struct OptimizedPulse
{
    pulse::PulseProgram program;
    /** Fourier coefficients per channel (x_a, y_a[, x_b, y_b, c]). */
    std::vector<std::vector<double>> coeffs;
    double final_loss = 0.0;
    int iterations = 0;
};

/**
 * Optimize one gate's pulses.
 *
 * @param method OptCtrl or Pert (others are fatal()).
 * @param gate   which native gate to optimize.
 * @param cfg    configuration.
 */
OptimizedPulse optimizePulse(PulseMethod method, pulse::PulseGate gate,
                             const PulseOptConfig &cfg);

/** Rebuild a pulse program from stored Fourier coefficients. */
pulse::PulseProgram programFromCoeffs(
    const std::vector<std::vector<double>> &coeffs, double t_gate);

/**
 * The full pulse library for a method, with in-process memoization
 * and the on-disk calibration store.  Gaussian and DCG libraries are
 * built directly; OptCtrl and Pert run (or load) the optimizer for
 * SX, Identity and RZX.
 *
 * Shared ownership: the returned library stays alive for as long as
 * any caller holds the shared_ptr, even across
 * clearPulseLibraryCache().  Thread-safe — concurrent callers (e.g.
 * Compiler::compileBatch() workers, or parallel ctest processes'
 * threads) serialize on an internal mutex, so a cold library is
 * built exactly once.
 */
std::shared_ptr<const pulse::PulseLibrary>
getPulseLibraryShared(PulseMethod method);

/** Clear the in-process per-method library memo (tests).
 *  Thread-safe; shared handles from getPulseLibraryShared() remain
 *  valid. */
void clearPulseLibraryCache();

} // namespace qzz::core

#endif // QZZ_CORE_PULSE_OPT_H
