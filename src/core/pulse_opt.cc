#include "core/pulse_opt.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "circuit/gate.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/dcg.h"

namespace qzz::core {

using la::CMatrix;
using pulse::FourierWaveform;
using pulse::PulseGate;
using pulse::PulseProgram;

std::string
pulseMethodName(PulseMethod m)
{
    switch (m) {
    case PulseMethod::Gaussian:
        return "Gaussian";
    case PulseMethod::OptCtrl:
        return "OptCtrl";
    case PulseMethod::Pert:
        return "Pert";
    case PulseMethod::DCG:
        return "DCG";
    }
    return "?";
}

std::optional<PulseMethod>
pulseMethodFromName(std::string_view name)
{
    for (PulseMethod m :
         {PulseMethod::Gaussian, PulseMethod::OptCtrl,
          PulseMethod::Pert, PulseMethod::DCG}) {
        if (iequalsAscii(name, pulseMethodName(m)))
            return m;
    }
    if (iequalsAscii(name, "Gau")) // exp::configName() abbreviation
        return PulseMethod::Gaussian;
    return std::nullopt;
}

const std::vector<std::string> &
pulseMethodNames()
{
    static const std::vector<std::string> names = {
        pulseMethodName(PulseMethod::Gaussian),
        pulseMethodName(PulseMethod::OptCtrl),
        pulseMethodName(PulseMethod::Pert),
        pulseMethodName(PulseMethod::DCG)};
    return names;
}

namespace {

/** Target unitary of a native pulse gate. */
CMatrix
targetMatrix(PulseGate gate)
{
    switch (gate) {
    case PulseGate::SX:
        return ckt::gateMatrix({ckt::GateKind::SX, {0}});
    case PulseGate::Identity:
        // I = Rx(2 pi) = -I2; average gate fidelity ignores the phase.
        return la::identity2();
    case PulseGate::RZX:
        return ckt::gateMatrix({ckt::GateKind::RZX, {0, 1}, {kPi / 2.0}});
    }
    panic("targetMatrix: unknown gate");
}

int
channelsFor(PulseGate gate)
{
    return gate == PulseGate::RZX ? 5 : 2;
}

/** Unpack a flat parameter vector into a pulse program. */
PulseProgram
buildProgram(PulseGate gate, const std::vector<double> &params,
             int harmonics, double t_gate)
{
    const int nch = channelsFor(gate);
    ensure(int(params.size()) == nch * harmonics,
           "buildProgram: parameter count mismatch");
    auto wf = [&](int ch) -> pulse::WaveformPtr {
        std::vector<double> coeffs(
            params.begin() + ch * harmonics,
            params.begin() + (ch + 1) * harmonics);
        return std::make_shared<FourierWaveform>(std::move(coeffs),
                                                 t_gate);
    };
    if (gate == PulseGate::RZX) {
        return PulseProgram::twoQubit(wf(0), wf(1), wf(2), wf(3), wf(4));
    }
    return PulseProgram::singleQubit(wf(0), wf(1));
}

/** Initial parameters implementing the bare gate, plus jitter. */
std::vector<double>
initialParams(PulseGate gate, int harmonics, double t_gate, Rng &rng,
              bool jitter_main)
{
    const int nch = channelsFor(gate);
    std::vector<double> p(size_t(nch) * size_t(harmonics), 0.0);
    // The Fourier area is (T/2) * sum(A_j); rotation angle = 2 * area.
    const double unit = kPi / (2.0 * t_gate); // area pi/4 on A_1
    switch (gate) {
    case PulseGate::SX:
        p[0] = 2.0 * unit; // theta = pi/2
        break;
    case PulseGate::Identity:
        p[0] = 8.0 * unit; // theta = 2 pi
        break;
    case PulseGate::RZX:
        // Coupling channel carries the pi/4 ZX area; an initial pi
        // rotation on the control echoes its spectators (echoed
        // cross-resonance), giving the optimizer a good basin.
        p[size_t(4) * size_t(harmonics)] = 2.0 * unit; // ZX area pi/4
        p[0] = 4.0 * unit;                             // X_a area pi
        break;
    }
    const double amp = 0.15 * unit * (jitter_main ? 4.0 : 1.0);
    for (auto &v : p)
        v += rng.uniform(-amp, amp);
    return p;
}

/** The calibration-store directory (may not exist yet). */
std::filesystem::path
cacheDir()
{
    if (const char *env = std::getenv("QZZ_PULSE_CACHE"))
        return std::filesystem::path(env);
#ifdef QZZ_DEFAULT_CACHE_DIR
    return std::filesystem::path(QZZ_DEFAULT_CACHE_DIR);
#else
    return std::filesystem::path("qzz_pulse_cache");
#endif
}

std::string
cacheKey(PulseMethod method, PulseGate gate, const PulseOptConfig &cfg)
{
    std::ostringstream ss;
    ss << "v4_" << pulseMethodName(method) << "_";
    switch (gate) {
    case PulseGate::SX:
        ss << "sx";
        break;
    case PulseGate::Identity:
        ss << "id";
        break;
    case PulseGate::RZX:
        ss << "rzx";
        break;
    }
    ss << "_h" << cfg.harmonics << "_T" << int(cfg.t_gate * 100);
    return ss.str();
}

bool
loadCoeffsFrom(const std::filesystem::path &dir, const std::string &key,
               int nch, int harmonics,
               std::vector<std::vector<double>> &out)
{
    std::ifstream in(dir / (key + ".txt"));
    if (!in)
        return false;
    out.assign(size_t(nch), std::vector<double>(size_t(harmonics), 0.0));
    for (auto &ch : out)
        for (auto &v : ch)
            if (!(in >> v))
                return false;
    return true;
}

bool
loadCoeffs(const std::string &key, int nch, int harmonics,
           std::vector<std::vector<double>> &out)
{
    if (loadCoeffsFrom(cacheDir(), key, nch, harmonics, out))
        return true;
#ifdef QZZ_SEED_CACHE_DIR
    // Factory calibration committed with the repository: spares cold
    // builds the multi-minute Adam optimization for the default keys.
    return loadCoeffsFrom(std::filesystem::path(QZZ_SEED_CACHE_DIR), key,
                          nch, harmonics, out);
#else
    return false;
#endif
}

void
storeCoeffs(const std::string &key,
            const std::vector<std::vector<double>> &coeffs)
{
    std::error_code ec;
    std::filesystem::create_directories(cacheDir(), ec);
    if (ec)
        return; // cache is best-effort
    // Write to a writer-private temp file and rename into place so
    // concurrent writers (ctest -j runs many optimizing processes at
    // once) can never leave a torn file behind.  The suffix combines
    // a per-process random tag, the thread id, and a counter so no
    // two writers ever share a temp path.
    static const unsigned process_tag = std::random_device{}();
    static std::atomic<unsigned> store_counter{0};
    const auto suffix =
        std::to_string(process_tag) + "." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id())) +
        "." + std::to_string(store_counter.fetch_add(1));
    const auto tmp = cacheDir() / (key + ".tmp." + suffix);
    bool ok;
    {
        std::ofstream out(tmp);
        if (!out)
            return;
        out.precision(17);
        for (const auto &ch : coeffs) {
            for (double v : ch)
                out << v << " ";
            out << "\n";
        }
        out.flush();
        ok = out.good();
    }
    if (ok)
        std::filesystem::rename(tmp, cacheDir() / (key + ".txt"), ec);
    if (!ok || ec)
        std::filesystem::remove(tmp, ec);
}

} // namespace

PulseOptConfig
defaultPulseOptConfig(PulseMethod method, PulseGate gate)
{
    PulseOptConfig cfg;
    cfg.objective.weight = 10.0;
    cfg.objective.lambda_intra = khz(200);
    // The echo-like suppressing basin sits far from the weak-drive
    // initialization; a hot-ish cosine-decayed schedule reaches it.
    cfg.adam.lr = 0.02;
    cfg.adam.lr_final = 0.002;
    cfg.adam.max_iters = 800;
    if (method == PulseMethod::OptCtrl)
        cfg.objective.lambda_samples = {mhz(0.25), mhz(0.75), mhz(1.5)};
    if (gate == PulseGate::RZX) {
        cfg.objective.dt = 0.05;
        cfg.adam.max_iters = 500;
        if (method == PulseMethod::OptCtrl) {
            cfg.objective.lambda_samples = {mhz(0.3), mhz(1.0)};
            cfg.adam.max_iters = 350;
        }
        cfg.restarts = 1;
    } else {
        cfg.objective.dt = 0.02;
        cfg.restarts = 2;
    }
    return cfg;
}

PulseProgram
programFromCoeffs(const std::vector<std::vector<double>> &coeffs,
                  double t_gate)
{
    require(coeffs.size() == 2 || coeffs.size() == 5,
            "programFromCoeffs: expected 2 or 5 channels");
    std::vector<double> flat;
    for (const auto &ch : coeffs)
        flat.insert(flat.end(), ch.begin(), ch.end());
    const int harmonics = int(coeffs[0].size());
    const PulseGate gate =
        coeffs.size() == 5 ? PulseGate::RZX : PulseGate::SX;
    return buildProgram(gate, flat, harmonics, t_gate);
}

OptimizedPulse
optimizePulse(PulseMethod method, PulseGate gate,
              const PulseOptConfig &cfg)
{
    require(method == PulseMethod::OptCtrl || method == PulseMethod::Pert,
            "optimizePulse: only OptCtrl and Pert are optimized");
    const CMatrix target = targetMatrix(gate);
    const bool two_q = gate == PulseGate::RZX;

    // Band-limiting regularizer shared by the main and polish losses.
    const double unit = kPi / (2.0 * cfg.t_gate);
    auto smoothness = [&](const std::vector<double> &params) {
        double reg = 0.0;
        for (size_t i = 0; i < params.size(); ++i) {
            const double j = double(i % size_t(cfg.harmonics));
            const double a = params[i] / unit;
            reg += j * j * a * a;
        }
        return cfg.smoothness_weight * reg;
    };

    LossFn loss = [&](const std::vector<double> &params) {
        PulseProgram p =
            buildProgram(gate, params, cfg.harmonics, cfg.t_gate);
        if (method == PulseMethod::Pert) {
            return smoothness(params) +
                   (two_q ? pertLossTwoQubit(p, target, cfg.objective)
                          : pertLossOneQubit(p, target, cfg.objective));
        }
        return smoothness(params) +
               (two_q ? optCtrlLossTwoQubit(p, target, cfg.objective)
                      : optCtrlLossOneQubit(p, target, cfg.objective));
    };

    Rng rng(cfg.seed);
    OptimizeResult best;
    best.loss = std::numeric_limits<double>::infinity();
    for (int r = 0; r < std::max(1, cfg.restarts); ++r) {
        Rng child = rng.split();
        std::vector<double> init;
        if (r == 0 && !cfg.warm_start.empty()) {
            require(int(cfg.warm_start.size()) ==
                        channelsFor(gate) * cfg.harmonics,
                    "optimizePulse: warm start has the wrong size");
            init = cfg.warm_start;
        } else {
            init = initialParams(gate, cfg.harmonics, cfg.t_gate,
                                 child, r > 0);
        }
        OptimizeResult res = minimizeAdam(loss, std::move(init), cfg.adam);
        if (res.loss < best.loss)
            best = std::move(res);
    }

    if (cfg.polish_iters > 0) {
        // Low-rate polish with a stiffer gate-implementation term.
        PulseOptConfig pcfg = cfg;
        pcfg.objective.weight *= cfg.polish_weight_gain;
        LossFn polish_loss = [&](const std::vector<double> &params) {
            PulseProgram p =
                buildProgram(gate, params, cfg.harmonics, cfg.t_gate);
            if (method == PulseMethod::Pert) {
                return smoothness(params) +
                       (two_q ? pertLossTwoQubit(p, target,
                                                 pcfg.objective)
                              : pertLossOneQubit(p, target,
                                                 pcfg.objective));
            }
            return smoothness(params) +
                   (two_q ? optCtrlLossTwoQubit(p, target,
                                                pcfg.objective)
                          : optCtrlLossOneQubit(p, target,
                                                pcfg.objective));
        };
        AdamOptions popt = cfg.adam;
        popt.max_iters = cfg.polish_iters;
        popt.lr = cfg.adam.lr_final;
        popt.lr_final = cfg.adam.lr_final / 10.0;
        OptimizeResult res =
            minimizeAdam(polish_loss, best.params, popt);
        // The polish loss weights the gate term more strongly; adopt
        // its solution unless it regressed the original objective
        // badly (it gains calibration fidelity for a small crosstalk
        // trade).
        const double original = loss(res.params);
        if (original < best.loss * 3.0) {
            best.params = std::move(res.params);
            best.loss = original;
        }
    }

    OptimizedPulse out;
    out.final_loss = best.loss;
    out.iterations = best.iterations;
    const int nch = channelsFor(gate);
    for (int ch = 0; ch < nch; ++ch)
        out.coeffs.emplace_back(
            best.params.begin() + ch * cfg.harmonics,
            best.params.begin() + (ch + 1) * cfg.harmonics);
    out.program =
        buildProgram(gate, best.params, cfg.harmonics, cfg.t_gate);
    return out;
}

namespace {

/** Coefficients for (method, gate): disk-cached, optimizing on miss. */
std::vector<std::vector<double>>
obtainCoeffs(PulseMethod method, PulseGate gate)
{
    PulseOptConfig cfg = defaultPulseOptConfig(method, gate);
    const std::string key = cacheKey(method, gate, cfg);
    std::vector<std::vector<double>> coeffs;
    if (loadCoeffs(key, channelsFor(gate), cfg.harmonics, coeffs))
        return coeffs;
    if (method == PulseMethod::OptCtrl) {
        // Warm-start optimal control from the Pert solution: the
        // average-fidelity landscape is shallow near the Gaussian
        // basin, while the perturbative solution already sits in the
        // suppressing one.
        auto pert = obtainCoeffs(PulseMethod::Pert, gate);
        cfg.warm_start.clear();
        for (const auto &ch : pert)
            cfg.warm_start.insert(cfg.warm_start.end(), ch.begin(),
                                  ch.end());
        cfg.restarts = 1;
    }
    OptimizedPulse opt = optimizePulse(method, gate, cfg);
    storeCoeffs(key, opt.coeffs);
    return opt.coeffs;
}

pulse::PulseLibrary
buildOptimizedLibrary(PulseMethod method)
{
    pulse::PulseLibrary lib(pulseMethodName(method));
    for (PulseGate gate :
         {PulseGate::SX, PulseGate::Identity, PulseGate::RZX}) {
        const double t_gate =
            defaultPulseOptConfig(method, gate).t_gate;
        lib.set(gate, programFromCoeffs(obtainCoeffs(method, gate),
                                        t_gate));
    }
    return lib;
}

/** Guards the memo map itself: compileBatch() workers and ctest -j
 *  threads may request libraries concurrently.  Held only for
 *  lookups/inserts, never across a library build. */
std::mutex &
libraryMutex()
{
    static std::mutex m;
    return m;
}

/** Serializes cold builds of one method so the (possibly
 *  multi-minute) optimization runs exactly once, without blocking
 *  cached lookups of the other methods. */
std::mutex &
libraryBuildMutex(PulseMethod method)
{
    static std::array<std::mutex, 4> mutexes;
    return mutexes[size_t(method) % mutexes.size()];
}

std::map<PulseMethod, std::shared_ptr<const pulse::PulseLibrary>> &
libraryMemo()
{
    static std::map<PulseMethod,
                    std::shared_ptr<const pulse::PulseLibrary>>
        memo;
    return memo;
}

std::shared_ptr<const pulse::PulseLibrary>
lookupLibrary(PulseMethod method)
{
    const std::lock_guard<std::mutex> lock(libraryMutex());
    auto &memo = libraryMemo();
    auto it = memo.find(method);
    return it != memo.end() ? it->second : nullptr;
}

} // namespace

std::shared_ptr<const pulse::PulseLibrary>
getPulseLibraryShared(PulseMethod method)
{
    if (auto cached = lookupLibrary(method))
        return cached;

    // Build outside the memo lock: only same-method builders
    // serialize, and double-checking under the build mutex makes the
    // build happen once.
    const std::lock_guard<std::mutex> build_lock(
        libraryBuildMutex(method));
    if (auto cached = lookupLibrary(method))
        return cached;

    pulse::PulseLibrary lib;
    switch (method) {
    case PulseMethod::Gaussian:
        lib = pulse::PulseLibrary::gaussian();
        break;
    case PulseMethod::DCG:
        lib = dcgLibrary();
        break;
    case PulseMethod::OptCtrl:
    case PulseMethod::Pert:
        lib = buildOptimizedLibrary(method);
        break;
    }
    auto shared = std::make_shared<const pulse::PulseLibrary>(
        std::move(lib));
    const std::lock_guard<std::mutex> lock(libraryMutex());
    auto [pos, ok] = libraryMemo().emplace(method, std::move(shared));
    ensure(ok, "getPulseLibraryShared: memo insert failed");
    return pos->second;
}

void
clearPulseLibraryCache()
{
    const std::lock_guard<std::mutex> lock(libraryMutex());
    libraryMemo().clear();
}

} // namespace qzz::core
