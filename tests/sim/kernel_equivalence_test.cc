/**
 * @file
 * Register kernels and the Strang integrator against a dense oracle.
 *
 * The fused density-matrix kernels, the state-vector kernels, the
 * step propagators, the phase-vector sweeps and the
 * simulators' shared step loop are all performance code that must
 * not move physics.  Every test here pins them to the dense 2^n x 2^n
 * reference of dense_oracle.h on randomized states, within 1e-10,
 * across register sizes up to an 8-qubit density matrix and across
 * the idle-qubit split of both registers (state vector n >= 9,
 * density matrix n >= 5).  The kernels' index enumeration is also
 * checked exactly, with permutation matrices, at every size up to 12
 * qubits for the state vector and up to 7 for the density matrix.
 * The split — the simulator's one level of
 * parallelism — is also pinned bit for bit across thread counts, and
 * its density-matrix block kernels and whole runs of both registers,
 * segments of several layers included, bit for bit to the whole
 * register.  Runs under ASan and TSan in CI (label
 * unit-service), so the shared-pool split is raced deliberately.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/par_sched.h"
#include "core/sched_walk.h"
#include "dense_oracle.h"
#include "graph/topologies.h"
#include "linalg/expm.h"
#include "sim/density_matrix.h"
#include "sim/drive_step.h"
#include "sim/lindblad.h"
#include "sim/pulse_sim.h"

namespace qzz::sim {
namespace {

using la::CMatrix;
using la::cplx;
using oracle::maxAbsDiff;

/** Agreement bound between a register and the dense oracle. */
constexpr double kTol = 1e-10;

CMatrix
randomMatrix(Rng &rng, size_t n)
{
    CMatrix m(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            m(r, c) = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return m;
}

/** A random unitary via the propagator of a random Hermitian. */
CMatrix
randomUnitary(Rng &rng, size_t n)
{
    CMatrix h = randomMatrix(rng, n);
    h = h + h.dagger();
    return la::expmPropagator(h, 0.37);
}

DensityMatrix
randomState(Rng &rng, int n)
{
    DensityMatrix dm(n);
    CMatrix &rho = dm.matrix();
    rho = randomMatrix(rng, dm.dim());
    rho = rho * rho.dagger(); // Hermitian positive
    rho *= cplx{1.0 / rho.trace().real(), 0.0}; // unit trace, like a real rho
    return dm;
}

StateVector
randomPureState(Rng &rng, int n)
{
    StateVector psi(n);
    double norm2 = 0.0;
    for (cplx &a : psi.amplitudes()) {
        a = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        norm2 += std::norm(a);
    }
    for (cplx &a : psi.amplitudes())
        a /= std::sqrt(norm2);
    return psi;
}

/** Largest |amplitude difference| between a state vector and an
 *  oracle column. */
double
maxAbsDiff(const StateVector &psi, const oracle::Dense &col)
{
    return maxAbsDiff(oracle::column(psi.amplitudes()), col);
}

/** A random per-qubit mix of lossy, dephasing-only, damping-only and
 *  coherent qubits, so every fused-branch combination is exercised. */
void
randomDecoherence(Rng &rng, int n, std::vector<double> &gamma,
                  std::vector<double> &keep)
{
    gamma.assign(size_t(n), 0.0);
    keep.assign(size_t(n), 1.0);
    for (int q = 0; q < n; ++q) {
        if (q % 4 == 0 || q % 4 == 2)
            gamma[size_t(q)] = rng.uniform(0.0, 0.2);
        if (q % 4 == 0 || q % 4 == 1)
            keep[size_t(q)] = rng.uniform(0.8, 1.0);
    }
}

/** The oracle's sequential channels for the factors of
 *  DensityMatrix::applyDecoherence. */
void
oracleDecoherence(const std::vector<double> &gamma,
                  const std::vector<double> &keep, oracle::Dense &rho)
{
    const int n = int(gamma.size());
    for (int q = 0; q < n; ++q) {
        oracle::applyKraus(oracle::amplitudeDamping(q, n, gamma[size_t(q)]),
                           rho);
        oracle::applyKraus(oracle::dephasing(q, n, keep[size_t(q)]), rho);
    }
}

TEST(KernelEquivalence, Fused1QMatchesDenseOracleAcrossSizes)
{
    Rng rng(11);
    for (int n = 2; n <= 8; ++n) {
        const CMatrix u = randomUnitary(rng, 2);
        for (int q = 0; q < n; ++q) {
            const CMatrix full = la::embed(u, {q}, n);
            DensityMatrix rho = randomState(rng, n);
            oracle::Dense want = rho.matrix();
            rho.apply1Q(la::toMat2(u), q);
            oracle::apply(full, want);
            EXPECT_LE(maxAbsDiff(rho.matrix(), want), kTol)
                << "n=" << n << " q=" << q;

            StateVector psi = randomPureState(rng, n);
            oracle::Dense col = oracle::column(psi.amplitudes());
            psi.apply1Q(la::toMat2(u), q);
            oracle::apply(full, col);
            EXPECT_LE(maxAbsDiff(psi, col), kTol) << "n=" << n << " q=" << q;
        }
    }
}

TEST(KernelEquivalence, Fused2QMatchesDenseOracleAcrossPairs)
{
    Rng rng(12);
    for (int n = 2; n <= 8; ++n) {
        const CMatrix u = randomUnitary(rng, 4);
        for (int qa = 0; qa < n; ++qa)
            for (int qb = 0; qb < n; ++qb) {
                if (qa == qb)
                    continue;
                const CMatrix full = la::embed(u, {qa, qb}, n);
                DensityMatrix rho = randomState(rng, n);
                oracle::Dense want = rho.matrix();
                rho.apply2Q(la::toMat4(u), qa, qb);
                oracle::apply(full, want);
                EXPECT_LE(maxAbsDiff(rho.matrix(), want), kTol)
                    << "n=" << n << " pair=(" << qa << "," << qb << ")";

                StateVector psi = randomPureState(rng, n);
                oracle::Dense col = oracle::column(psi.amplitudes());
                psi.apply2Q(la::toMat4(u), qa, qb);
                oracle::apply(full, col);
                EXPECT_LE(maxAbsDiff(psi, col), kTol)
                    << "n=" << n << " pair=(" << qa << "," << qb << ")";
            }
    }
}

/** A register whose amplitude k is the exact value (k + 1) - k i. */
StateVector
indexedState(int n)
{
    StateVector psi(n);
    la::CVector &a = psi.amplitudes();
    for (size_t k = 0; k < a.size(); ++k)
        a[k] = cplx{double(k + 1), -double(k)};
    return psi;
}

// Permutation matrices keep the arithmetic exact (products with 0 and
// 1, sums with 0) under any codegen, so the kernels' index
// enumeration is checked with ==: a skipped, doubled or misplaced
// pair or quadruple cannot hide under a rounding tolerance.  Every
// size up to the paper's 12 qubits, so the stride-1 and s_min == 1
// loops and s_max == dim/2 are all covered.

TEST(KernelEquivalence, Apply1QPermutesEveryAmplitudeExactly)
{
    const la::Mat2 x = {cplx{0.0}, cplx{1.0}, cplx{1.0}, cplx{0.0}};
    for (int n = 1; n <= 12; ++n)
        for (int q = 0; q < n; ++q) {
            StateVector psi = indexedState(n);
            const la::CVector before = psi.amplitudes();
            psi.apply1Q(x, q);
            const size_t bit = size_t(1) << (n - 1 - q);
            la::CVector want(before.size());
            for (size_t k = 0; k < want.size(); ++k)
                want[k] = before[k ^ bit];
            EXPECT_TRUE(psi.amplitudes() == want) << "n=" << n << " q=" << q;
        }
}

TEST(KernelEquivalence, Apply2QPermutesEveryAmplitudeExactly)
{
    // The 4-cycle |00> -> |01> -> |10> -> |11> -> |00> on (q_hi, q_lo):
    // local basis state r receives the amplitude of (r + 3) mod 4.  It
    // is not symmetric under swapping the qubits or transposing.
    la::Mat4 cycle{};
    for (int r = 0; r < 4; ++r)
        cycle[size_t(r * 4 + (r + 3) % 4)] = 1.0;
    for (int n = 2; n <= 12; ++n)
        for (int qa = 0; qa < n; ++qa)
            for (int qb = 0; qb < n; ++qb) {
                if (qa == qb)
                    continue;
                StateVector psi = indexedState(n);
                const la::CVector before = psi.amplitudes();
                psi.apply2Q(cycle, qa, qb);
                const size_t bit_hi = size_t(1) << (n - 1 - qa);
                const size_t bit_lo = size_t(1) << (n - 1 - qb);
                la::CVector want(before.size());
                for (size_t k = 0; k < want.size(); ++k) {
                    const int r =
                        ((k & bit_hi) ? 2 : 0) + ((k & bit_lo) ? 1 : 0);
                    const int src = (r + 3) % 4;
                    const size_t from = (k & ~(bit_hi | bit_lo)) |
                                        ((src & 2) ? bit_hi : 0) |
                                        ((src & 1) ? bit_lo : 0);
                    want[k] = before[from];
                }
                EXPECT_TRUE(psi.amplitudes() == want)
                    << "n=" << n << " pair=(" << qa << "," << qb << ")";
            }
}

std::span<const cplx>
entries(const DensityMatrix &rho)
{
    return {rho.matrix().data(), rho.dim() * rho.dim()};
}

bool
sameBits(std::span<const cplx> a, std::span<const cplx> b)
{
    return std::ranges::equal(a, b);
}

bool
sameBits(const DensityMatrix &a, const DensityMatrix &b)
{
    return sameBits(entries(a), entries(b));
}

std::span<cplx>
entries(DensityMatrix &rho)
{
    return {rho.matrix().data(), rho.dim() * rho.dim()};
}

/** 0, 1, ..., d - 1: the row and column index of a whole matrix. */
std::vector<size_t>
identityIndex(size_t d)
{
    std::vector<size_t> index(d);
    for (size_t i = 0; i < d; ++i)
        index[i] = i;
    return index;
}

/** The simulator's split step on a whole matrix: damping's transfer
 *  on every qubit, ascending, then the entrywise scale S. */
void
transfersThenScale(DensityMatrix &rho, const std::vector<double> &gamma,
                   const std::vector<double> &keep)
{
    const int n = rho.numQubits();
    const size_t d = rho.dim();
    for (int q = 0; q < n; ++q)
        transferPopulation(entries(rho), d, d >> (q + 1), gamma[size_t(q)]);
    const std::vector<size_t> index = identityIndex(d);
    std::vector<cplx> scale(d * d);
    scaleTable(scale, d, index, index, gamma, keep);
    multiplyEntries(entries(rho), scale);
}

/** A density matrix whose entry (r, c) is the exact value (k + 1) - k i,
 *  k = r * 2^n + c. */
DensityMatrix
indexedDensity(int n)
{
    DensityMatrix rho(n);
    for (size_t r = 0; r < rho.dim(); ++r)
        for (size_t c = 0; c < rho.dim(); ++c) {
            const size_t k = r * rho.dim() + c;
            rho.matrix()(r, c) = cplx{double(k + 1), -double(k)};
        }
    return rho;
}

/** P rho P^T for the permutation P that sends basis state src(k) to k. */
DensityMatrix
permuted(const DensityMatrix &rho, const std::function<size_t(size_t)> &src)
{
    DensityMatrix out(rho.numQubits());
    for (size_t r = 0; r < rho.dim(); ++r)
        for (size_t c = 0; c < rho.dim(); ++c)
            out.matrix()(r, c) = rho.matrix()(src(r), src(c));
    return out;
}

// The same exact check for the density matrix's row and column passes,
// which walk a register of 2n qubits: every branch of the stride-1 and
// s_min == 1 loops on both passes, up to 7 qubits (16384 entries).

TEST(KernelEquivalence, DensityApply1QPermutesEveryEntryExactly)
{
    const la::Mat2 x = {cplx{0.0}, cplx{1.0}, cplx{1.0}, cplx{0.0}};
    for (int n = 1; n <= 7; ++n)
        for (int q = 0; q < n; ++q) {
            DensityMatrix rho = indexedDensity(n);
            const DensityMatrix want = permuted(rho, [&](size_t k) {
                return k ^ (size_t(1) << (n - 1 - q));
            });
            rho.apply1Q(x, q);
            EXPECT_TRUE(sameBits(rho, want)) << "n=" << n << " q=" << q;
        }
}

TEST(KernelEquivalence, DensityApply2QPermutesEveryEntryExactly)
{
    // The 4-cycle of Apply2QPermutesEveryAmplitudeExactly.
    la::Mat4 cycle{};
    for (int r = 0; r < 4; ++r)
        cycle[size_t(r * 4 + (r + 3) % 4)] = 1.0;
    for (int n = 2; n <= 7; ++n)
        for (int qa = 0; qa < n; ++qa)
            for (int qb = 0; qb < n; ++qb) {
                if (qa == qb)
                    continue;
                DensityMatrix rho = indexedDensity(n);
                const size_t bit_hi = size_t(1) << (n - 1 - qa);
                const size_t bit_lo = size_t(1) << (n - 1 - qb);
                const DensityMatrix want = permuted(rho, [&](size_t k) {
                    const int r =
                        ((k & bit_hi) ? 2 : 0) + ((k & bit_lo) ? 1 : 0);
                    const int src = (r + 3) % 4;
                    return (k & ~(bit_hi | bit_lo)) |
                           ((src & 2) ? bit_hi : 0) |
                           ((src & 1) ? bit_lo : 0);
                });
                rho.apply2Q(cycle, qa, qb);
                EXPECT_TRUE(sameBits(rho, want))
                    << "n=" << n << " pair=(" << qa << "," << qb << ")";
            }
}

TEST(KernelEquivalence, FusedDecoherenceMatchesSequentialChannels)
{
    Rng rng(13);
    for (int n = 2; n <= 8; ++n) {
        std::vector<double> gamma, keep;
        randomDecoherence(rng, n, gamma, keep);
        DensityMatrix rho = randomState(rng, n);
        oracle::Dense want = rho.matrix();
        rho.applyDecoherence(gamma, keep);
        oracleDecoherence(gamma, keep, want);
        EXPECT_LE(maxAbsDiff(rho.matrix(), want), kTol) << "n=" << n;
    }
}

TEST(KernelEquivalence, TransfersThenScaleMatchFusedDecoherence)
{
    // The simulator's order: every qubit's transfer, then one S table,
    // against the per-qubit Kraus sweep and the oracle's sequential
    // channels.  Lossy, dephasing-only (gamma 0), damping-only (keep 1)
    // and coherent qubits all occur.
    Rng rng(19);
    for (int n = 2; n <= 8; ++n) {
        std::vector<double> gamma, keep;
        randomDecoherence(rng, n, gamma, keep);
        const DensityMatrix rho0 = randomState(rng, n);
        DensityMatrix got = rho0, fused = rho0;
        transfersThenScale(got, gamma, keep);
        fused.applyDecoherence(gamma, keep);
        oracle::Dense want = rho0.matrix();
        oracleDecoherence(gamma, keep, want);
        EXPECT_LE(maxAbsDiff(got.matrix(), fused.matrix()), kTol)
            << "n=" << n;
        EXPECT_LE(maxAbsDiff(got.matrix(), want), kTol) << "n=" << n;
    }
}

TEST(KernelEquivalence, PhaseVectorMatchesDiagonalPhase)
{
    Rng rng(14);
    for (int n = 2; n <= 8; ++n) {
        std::vector<double> energies(size_t(1) << n);
        for (double &e : energies)
            e = rng.uniform(-5.0, 5.0);
        const double dt = 0.087;
        DensityMatrix rho = randomState(rng, n);
        oracle::Dense want = rho.matrix();
        rho.applyPhaseVector(phaseVector(energies, dt));
        oracle::apply(oracle::diagonalPhase(energies, dt), want);
        EXPECT_LE(maxAbsDiff(rho.matrix(), want), kTol) << "n=" << n;
    }
}

TEST(KernelEquivalence, StateVectorPhaseVectorMatchesDiagonalPhase)
{
    Rng rng(15);
    const int n = 6;
    std::vector<double> energies(size_t(1) << n);
    for (double &e : energies)
        e = rng.uniform(-5.0, 5.0);
    StateVector psi = randomPureState(rng, n);
    oracle::Dense want = oracle::column(psi.amplitudes());
    const double dt = 0.059;
    psi.applyPhaseVector(phaseVector(energies, dt));
    oracle::apply(oracle::diagonalPhase(energies, dt), want);
    EXPECT_LE(maxAbsDiff(psi, want), kTol);
}

TEST(KernelEquivalence, FixedSizePropagatorMatchesHeapExpm)
{
    Rng rng(16);
    for (int trial = 0; trial < 20; ++trial) {
        CMatrix h = randomMatrix(rng, 4);
        h = h + h.dagger();
        // Cover both the unscaled and the scaled-and-squared branch.
        const double t = trial % 2 == 0 ? 0.05 : 9.0;
        const CMatrix want = la::expmPropagator(h, t);
        la::Mat4 got;
        la::expmPropagator4(la::toMat4(h), t, got);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_LE(std::abs(got[i] - want(i / 4, i % 4)), 1e-13);
    }
}

TEST(KernelEquivalence, DrivePropagatorsMatchDenseOracle)
{
    // The fixed-size step propagators against the oracle's own
    // Hamiltonians.
    const pulse::PulseLibrary lib = pulse::PulseLibrary::gaussian();
    const double dt = 0.1;
    const auto &sx = lib.get(pulse::PulseGate::SX);
    const auto &rzx = lib.get(pulse::PulseGate::RZX);
    for (size_t s = 0; s < 40; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        la::Mat2 m2;
        drive1QStep(sx, t_mid, dt, m2);
        la::Mat4 m4;
        drive2QStep(rzx, t_mid, dt, m4);
        const CMatrix o2 = oracle::driveStep(sx, t_mid, dt);
        const CMatrix o4 = oracle::driveStep(rzx, t_mid, dt);
        for (size_t i = 0; i < 4; ++i)
            EXPECT_LE(std::abs(m2[i] - o2(i / 2, i % 2)), kTol);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_LE(std::abs(m4[i] - o4(i / 4, i % 4)), kTol);
    }
}

dev::Device
gridDevice(int rows, int cols, uint64_t seed = 7)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(rows, cols),
                       dev::DeviceParams{}, rng);
}

core::Schedule
fig23StyleSchedule(const dev::Device &dev, int n)
{
    ckt::QuantumCircuit c(n);
    for (int rep = 0; rep < 3; ++rep) {
        for (int q = 0; q < n; ++q)
            c.sx(q);
        c.rzx(0, 1, kPi / 2.0);
        if (n >= 4)
            c.rzx(2, 3, kPi / 2.0);
    }
    return core::parSchedule(c, dev, core::GateDurations{});
}

TEST(KernelEquivalence, DensitySimulatorMatchesDenseOracle)
{
    // Coherent device: the merged-half-step branch of the loop.
    const auto dev = gridDevice(2, 3);
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();
    PulseSimOptions opt;
    opt.dt = 0.1;

    Rng rng(21);
    DensityMatrix rho = randomState(rng, 6);
    oracle::Dense want = rho.matrix();
    DensityMatrixScheduleSimulator(dev, lib, opt).run(sched, rho);
    oracle::runSchedule(sched, dev, lib, opt.dt, false, want);
    EXPECT_LE(maxAbsDiff(rho.matrix(), want), kTol);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
}

TEST(KernelEquivalence, StateVectorSimulatorMatchesDenseOracle)
{
    const auto dev = gridDevice(2, 3);
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();
    PulseSimOptions opt;
    opt.dt = 0.1;

    Rng rng(22);
    StateVector psi = randomPureState(rng, 6);
    oracle::Dense want = oracle::column(psi.amplitudes());
    PulseScheduleSimulator(dev, lib, opt).run(sched, psi);
    oracle::runSchedule(sched, dev, lib, opt.dt, false, want);
    EXPECT_LE(maxAbsDiff(psi, want), kTol);
}

TEST(KernelEquivalence, DecoherentSimulatorGoldenFidelity)
{
    // Fig. 23-style: a lossy 6-qubit device with heterogeneous T1/T2
    // (one qubit coherent, one with T1 only, one with T2 only), so
    // the Kraus sweep sits between the unmerged half-steps and skips
    // what it should.
    graph::Topology topo = graph::gridTopology(2, 3);
    dev::DeviceParams params;
    Rng rng(4);
    dev::Calibration calib = dev::Calibration::sampled(topo, params, rng);
    const double inf = std::numeric_limits<double>::infinity();
    const double t1[6] = {5000.0, 4000.0, inf, 6000.0, inf, 3500.0};
    const double t2[6] = {3000.0, 5000.0, 2500.0, inf, inf, 4000.0};
    for (int q = 0; q < 6; ++q) {
        calib.t1[size_t(q)] = t1[q];
        calib.t2[size_t(q)] = t2[q];
    }
    const dev::Device dev(topo, calib);
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();
    PulseSimOptions opt;
    opt.dt = 0.25;

    DensityMatrix rho = DensityMatrixScheduleSimulator(dev, lib, opt)
                            .run(sched);
    oracle::Dense want(rho.dim(), rho.dim());
    want(0, 0) = 1.0;
    oracle::runSchedule(sched, dev, lib, opt.dt, true, want);
    StateVector zero(6);
    EXPECT_NEAR(rho.expectationPure(zero), want(0, 0).real(), kTol);
    EXPECT_LE(maxAbsDiff(rho.matrix(), want), kTol);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
    // The channels did act: the state is no longer pure.
    const CMatrix sq = rho.matrix() * rho.matrix();
    EXPECT_LT(sq.trace().real(), 1.0 - 1e-4);
}

TEST(KernelEquivalence, FusedKernelsMatchDenseOracleAtEightQubits)
{
    // The largest register (dim 256) at which the fused 1Q, 2Q and
    // Kraus kernels are pinned to the dense oracle one by one.
    Rng rng(17);
    const int n = 8;
    const CMatrix u2 = randomUnitary(rng, 2);
    const CMatrix u4 = randomUnitary(rng, 4);
    DensityMatrix rho = randomState(rng, n);
    oracle::Dense want = rho.matrix();

    rho.apply1Q(la::toMat2(u2), 3);
    oracle::apply(la::embed(u2, {3}, n), want);
    rho.apply2Q(la::toMat4(u4), 1, 6);
    oracle::apply(la::embed(u4, {1, 6}, n), want);
    std::vector<double> gamma(size_t(n), 0.01), keep(size_t(n), 0.995);
    rho.applyDecoherence(gamma, keep);
    oracleDecoherence(gamma, keep, want);
    EXPECT_LE(maxAbsDiff(rho.matrix(), want), kTol);
}

/** Block (a, b) of @p rho split on qubit @p q: the entries whose row
 *  reads a and whose column reads b on q, as a register of n - 1. */
DensityMatrix
block(const DensityMatrix &rho, int q, int a, int b)
{
    const int n = rho.numQubits();
    const size_t mask = size_t(1) << (n - 1 - q);
    const auto full = [&](size_t l, int bit) {
        const size_t low = l & (mask - 1);
        return ((l & ~(mask - 1)) << 1) | (bit ? mask : 0) | low;
    };
    DensityMatrix out(n - 1);
    for (size_t r = 0; r < out.dim(); ++r)
        for (size_t c = 0; c < out.dim(); ++c)
            out.matrix()(r, c) = rho.matrix()(full(r, a), full(c, b));
    return out;
}

/** XOR class @p x of @p rho split on qubit @p q, as the layer split
 *  stores it: block (0, x), then block (1, 1 ^ x). */
std::vector<cplx>
xorClass(const DensityMatrix &rho, int q, int x)
{
    std::vector<cplx> out;
    for (int a = 0; a < 2; ++a) {
        const DensityMatrix b = block(rho, q, a, a ^ x);
        out.insert(out.end(), entries(b).begin(), entries(b).end());
    }
    return out;
}

/** The full-register row of every row of xorClass(rho, q, x), then the
 *  full-register column of every column of each of its blocks. */
std::pair<std::vector<size_t>, std::vector<size_t>>
xorClassIndex(int n, int q, int x)
{
    const size_t half = size_t(1) << (n - 1);
    const size_t mask = size_t(1) << (n - 1 - q);
    const auto full = [&](size_t l, size_t bit) {
        return ((l & ~(mask - 1)) << 1) | (bit ? mask : 0) | (l & (mask - 1));
    };
    std::vector<size_t> rows(2 * half), columns(2 * half);
    for (size_t r = 0; r < 2 * half; ++r) {
        const size_t a = r / half;
        rows[r] = full(r % half, a);
        columns[r] = full(r % half, a ^ size_t(x));
    }
    return {rows, columns};
}

TEST(KernelEquivalence, SplitBlockKernelsMatchWholeRegisterBitForBit)
{
    // A density matrix split on a qubit runs every kernel on its two
    // XOR classes, each two blocks of n - 1 qubits in one flat array:
    // the gates and the other qubits' transfers once over the class,
    // the split qubit's transfer across its two blocks, and the phase
    // and scale tables built from each entry's full-register row and
    // column.  Each must give the bits the whole-register kernel gives,
    // for every split position and every damping/dephasing branch, at
    // every size from the smallest with a 2Q gate beside the split
    // qubit up to 7 qubits.  The blocks of 2 to 6 qubits run every
    // branch of the walk on both passes with other strides than the
    // whole register.
    Rng rng(18);
    const CMatrix u2 = randomUnitary(rng, 2);
    const CMatrix u4 = randomUnitary(rng, 4);
    const la::Mat2 m2 = la::toMat2(u2);
    const la::Mat4 m4 = la::toMat4(u4);
    for (int n = 3; n <= 7; ++n) {
        std::vector<double> energies(size_t(1) << n);
        for (double &e : energies)
            e = rng.uniform(-5.0, 5.0);
        const la::CVector p = phaseVector(energies, 0.071);
        const size_t d = size_t(1) << n;
        const size_t half = d >> 1;
        const std::vector<size_t> identity = identityIndex(d);
        for (int q = 0; q < n; ++q) {
            // Two qubits besides q; at n = 3, q - 1 is q + 2.
            const int other = (q + 2) % n;
            const int other2 = n > 3 ? (q + n - 1) % n : (q + 1) % n;
            // Stride inside a block of the qubit k != q.
            const auto s = [&](int k) {
                return half >> ((k < q ? k : k - 1) + 1);
            };
            for (auto [g, kp] :
                 {std::pair{0.13, 0.91}, std::pair{0.13, 1.0},
                  std::pair{0.0, 0.91}}) {
                SCOPED_TRACE("n=" + std::to_string(n) + " q=" +
                             std::to_string(q) + " gamma=" +
                             std::to_string(g) + " keep=" +
                             std::to_string(kp));
                // The split qubit's transfer: the populations sit in
                // class 0, across its two blocks; class 1 holds the
                // coherences, which no transfer touches.
                const DensityMatrix rho0 = randomState(rng, n);
                DensityMatrix whole = rho0;
                transferPopulation(entries(whole), d, d >> (q + 1), g);
                for (int x = 0; x < 2; ++x) {
                    std::vector<cplx> cls = xorClass(rho0, q, x);
                    if (x == 0)
                        transferPopulationAcross(cls, half * half, g);
                    EXPECT_TRUE(sameBits(cls, xorClass(whole, q, x)))
                        << "split transfer x=" << x;
                }

                // The entrywise tables: the ZZ phase, and the scale S
                // of these factors on q and on another qubit.
                std::vector<double> gamma(size_t(n), 0.0),
                    keep(size_t(n), 1.0);
                gamma[size_t(q)] = gamma[size_t(other)] = g;
                keep[size_t(q)] = keep[size_t(other)] = kp;
                std::vector<cplx> phase(d * d), scale(d * d);
                phaseTable(phase, d, identity, identity, p);
                scaleTable(scale, d, identity, identity, gamma, keep);
                for (int x = 0; x < 2; ++x) {
                    const auto [rows, columns] = xorClassIndex(n, q, x);
                    std::vector<cplx> cls_phase(d * half), cls_scale(d * half);
                    phaseTable(cls_phase, half, rows, columns, p);
                    scaleTable(cls_scale, half, rows, columns, gamma, keep);
                    DensityMatrix table(n);
                    std::ranges::copy(phase, entries(table).begin());
                    EXPECT_TRUE(sameBits(cls_phase, xorClass(table, q, x)))
                        << "phase table x=" << x;
                    std::ranges::copy(scale, entries(table).begin());
                    EXPECT_TRUE(sameBits(cls_scale, xorClass(table, q, x)))
                        << "scale table x=" << x;
                }

                // The gates and another qubit's transfer, one by one.
                using OnWhole = std::function<void(DensityMatrix &)>;
                using OnClass = std::function<void(std::span<cplx>)>;
                const std::vector<std::tuple<std::string, OnWhole, OnClass>>
                    ops = {
                        {"transfer",
                         [&](DensityMatrix &r) {
                             transferPopulation(entries(r), d,
                                                d >> (other + 1), g);
                         },
                         [&](std::span<cplx> c) {
                             transferPopulation(c, half, s(other), g);
                         }},
                        {"1q", [&](DensityMatrix &r) { r.apply1Q(m2, other); },
                         [&](std::span<cplx> c) {
                             conjugate1Q(c, half, m2, s(other));
                         }},
                        {"2q",
                         [&](DensityMatrix &r) {
                             r.apply2Q(m4, other2, other);
                         },
                         [&](std::span<cplx> c) {
                             conjugate2Q(c, half, m4, s(other2), s(other));
                         }},
                    };
                for (const auto &[name, on_whole, on_class] : ops) {
                    whole = rho0;
                    on_whole(whole);
                    for (int x = 0; x < 2; ++x) {
                        std::vector<cplx> cls = xorClass(rho0, q, x);
                        on_class(cls);
                        EXPECT_TRUE(sameBits(cls, xorClass(whole, q, x)))
                            << name << " x=" << x;
                    }
                }
            }
        }
    }
}

/** A physical layer of SX gates on @p sx, identities on @p id and
 *  RZX(pi/2) on the ordered pairs @p rzx, lasting @p duration ns.
 *  The pulses last 20 ns, so in a longer layer they end mid-layer. */
core::Layer
physicalLayer(const std::vector<int> &sx, const std::vector<int> &id,
              const std::vector<std::array<int, 2>> &rzx, double duration)
{
    core::Layer l;
    l.duration = duration;
    for (int q : sx)
        l.gates.push_back({ckt::Gate(ckt::GateKind::SX, {q})});
    for (int q : id)
        l.gates.push_back({ckt::Gate(ckt::GateKind::I, {q})});
    for (const auto &p : rzx)
        l.gates.push_back(
            {ckt::Gate(ckt::GateKind::RZX, {p[0], p[1]}, {kPi / 2.0})});
    return l;
}

std::vector<int>
qubitRange(int lo, int hi)
{
    std::vector<int> q;
    for (int i = lo; i < hi; ++i)
        q.push_back(i);
    return q;
}

/**
 * Layers covering every split case of a register of n >= 5 qubits
 * (qubit 0 is the top bit): no idle qubit, one idle at the lowest
 * bit, idle top bits, exactly two idle qubits between busy ones and
 * straddled by RZX jobs in both qubit orders, idle qubits at both
 * ends, a lone job, and a virtual layer.
 */
core::Schedule
splitCaseSchedule(int n)
{
    core::Schedule s;
    s.num_qubits = n;
    // 0 idle; an identity pulse keeps qubit 2 busy.
    s.layers.push_back(physicalLayer(qubitRange(3, n - 2), {2},
                                     {{0, 1}, {n - 1, n - 2}}, 20.0));
    // 1 idle: qubit n-1, the lowest bit.
    std::vector<int> sx = qubitRange(3, n - 1);
    sx.push_back(0);
    s.layers.push_back(physicalLayer(sx, {}, {{2, 1}}, 30.0));
    // Idle {0, 1, n-2, n-1}: the split takes the top bits.
    s.layers.push_back(
        physicalLayer(qubitRange(4, n - 2), {}, {{2, 3}}, 25.0));
    // Idle {1, 3} only; RZX(0,4) crosses both split bits, RZX(5,2)
    // crosses bit 3 in the other qubit order.
    sx = qubitRange(6, n);
    std::vector<std::array<int, 2>> rzx = {{0, 4}};
    if (n > 5)
        rzx.push_back({5, 2});
    else
        sx.push_back(2);
    s.layers.push_back(physicalLayer(sx, {}, rzx, 30.0));
    core::Layer virt;
    virt.is_virtual = true;
    virt.gates.push_back({ckt::Gate(ckt::GateKind::RZ, {0}, {0.7})});
    virt.gates.push_back({ckt::Gate(ckt::GateKind::RZ, {n - 1}, {-1.1})});
    s.layers.push_back(virt);
    // Idle {0, n-1}: the split bits are the top and the lowest.
    s.layers.push_back(
        physicalLayer(qubitRange(3, n - 1), {}, {{1, 2}}, 20.0));
    // One job, everything else idle.
    s.layers.push_back(physicalLayer({n / 2}, {}, {}, 30.0));
    return s;
}

/** A ParSched and a ZZXSched schedule of a random circuit of SX and
 *  RZX(pi/2) gates on the couplings of @p dev. */
std::vector<core::Schedule>
compiledSchedules(const dev::Device &dev)
{
    const int n = dev.numQubits();
    ckt::QuantumCircuit c(n);
    Rng rng(5);
    for (int rep = 0; rep < 3; ++rep) {
        for (int q = 0; q < n; ++q)
            if (rng.uniform(0.0, 1.0) < 0.5)
                c.sx(q);
        for (const graph::Edge &e : dev.graph().edges())
            if (rng.uniform(0.0, 1.0) < 0.2)
                c.rzx(e.u, e.v, kPi / 2.0);
    }
    return {core::parSchedule(c, dev, core::GateDurations{}),
            core::schedule(core::SchedPolicy::Zzx, c, dev,
                           core::GateDurations{})};
}

/** @p dev with heterogeneous T1/T2 (ns) on its first eight qubits:
 *  both, T1 only, T2 only and neither all occur, and the qubits the
 *  split-case layers split on (0, 1, 3, n-1) are lossy in different
 *  ways or, on 5 qubits, coherent (qubit 4). */
dev::Device
lossy(const dev::Device &dev)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double t1[8] = {5000.0, 4000.0, inf, inf, inf, 3500.0, 4500.0, inf};
    const double t2[8] = {3000.0, inf, 2500.0, 5000.0, inf, 4000.0, 3500.0,
                          2000.0};
    dev::Calibration calib = dev.calibration();
    for (size_t q = 0; q < calib.t1.size() && q < 8; ++q) {
        calib.t1[q] = t1[q];
        calib.t2[q] = t2[q];
    }
    return dev.withCalibration(calib);
}

std::span<const cplx>
entries(const StateVector &psi)
{
    return psi.amplitudes();
}

/**
 * Runs @p sched from @p reg0 once from the top level, where split
 * layers fan their parts out across the pool, and twice from inside a
 * parallelFor() block, where the nested fan-out runs inline, one
 * part after another on one thread.  Expects the three results to agree to the bit and
 * returns the pooled one.
 */
template <class Reg>
Reg
runPooledAndNested(const ScheduleSimulator<Reg> &sim,
                   const core::Schedule &sched, const Reg &reg0)
{
    Reg pooled = reg0;
    sim.run(sched, pooled);
    // Two blocks, so the call dispatches to the pool and each block's
    // own run is nested.
    std::vector<Reg> nested(2, reg0);
    common::parallelFor(0, 2, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            sim.run(sched, nested[i]);
    });
    for (const Reg &r : nested)
        EXPECT_TRUE(std::ranges::equal(entries(r), entries(pooled)))
            << "nested-inline run differs from the pooled run";
    return pooled;
}

TEST(KernelEquivalence, IdleQubitSplitIsThreadCountInvariant)
{
    // Pooled and nested-inline runs agree to the bit, and at n = 9
    // track the dense oracle.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (auto [rows, cols] : {std::pair{3, 3}, std::pair{3, 4}}) {
        const int n = rows * cols;
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto dev = gridDevice(rows, cols);
        const core::Schedule sched = splitCaseSchedule(n);
        PulseSimOptions opt;
        opt.dt = 0.5;
        const PulseScheduleSimulator sim(dev, lib, opt);

        Rng rng{uint64_t(n)};
        const StateVector psi0 = randomPureState(rng, n);
        const StateVector pooled = runPooledAndNested(sim, sched, psi0);
        if (n == 9) {
            oracle::Dense want = oracle::column(psi0.amplitudes());
            oracle::runSchedule(sched, dev, lib, opt.dt, false, want);
            EXPECT_LE(maxAbsDiff(pooled, want), kTol);
        }
        EXPECT_NEAR(pooled.norm(), 1.0, 1e-9);
        // The schedule did move the state.
        EXPECT_LT(pooled.fidelity(psi0), 0.99);
    }
}

TEST(KernelEquivalence, IdleQubitSplitMatchesDenseOracleOnCompiledSchedules)
{
    // The schedulers' own layers under both policies: a ParSched
    // layer leaves gate-free qubits idle, a ZZXSched layer puts no
    // pulse on its suppressed side.  Pooled and nested-inline runs
    // agree to the bit at n = 9 and 12; at n = 9 (dt 1.0, so the
    // dense 512 x 512 oracle stays cheap) they also track the oracle.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (auto [rows, cols, dt] :
         {std::tuple{3, 3, 1.0}, std::tuple{3, 4, 0.5}}) {
        const int n = rows * cols;
        const auto dev = gridDevice(rows, cols, 11);
        PulseSimOptions opt;
        opt.dt = dt;
        const PulseScheduleSimulator sim(dev, lib, opt);
        const StateVector zero(n);
        for (const core::Schedule &sched : compiledSchedules(dev)) {
            SCOPED_TRACE("n=" + std::to_string(n));
            const StateVector got = runPooledAndNested(sim, sched, zero);
            if (n == 9) {
                oracle::Dense want = oracle::column(zero.amplitudes());
                oracle::runSchedule(sched, dev, lib, opt.dt, false, want);
                EXPECT_LE(maxAbsDiff(got, want), kTol);
            }
            EXPECT_LT(got.fidelity(zero), 0.99);
        }
    }
}

/** The topologies of the density-matrix split tests: 5 and 6 qubits,
 *  where the dense oracle is cheap, and 8, where a layer with no
 *  idle qubit runs the kernels' own pool split. */
std::vector<graph::Topology>
densitySplitTopologies()
{
    return {graph::lineTopology(5), graph::gridTopology(2, 3),
            graph::gridTopology(2, 4)};
}

TEST(KernelEquivalence, DensityIdleQubitSplitMatchesDenseOracle)
{
    // The split-case layers on a density matrix: coherent, where the
    // ZZ half-steps merge, and with heterogeneous T1/T2, where the
    // Kraus sweep pairs the blocks of each lossy split qubit in the
    // whole register's qubit order.  Pooled and nested-inline runs
    // agree to the bit; at n = 5 and 6 they track the dense oracle.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (const graph::Topology &topo : densitySplitTopologies()) {
        const int n = topo.g.numVertices();
        Rng dev_rng(7);
        const dev::Device coherent(topo, dev::DeviceParams{}, dev_rng);
        const core::Schedule sched = splitCaseSchedule(n);
        for (const bool decoherent : {false, true}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         (decoherent ? " T1/T2" : " coherent"));
            const dev::Device dev = decoherent ? lossy(coherent) : coherent;
            PulseSimOptions opt;
            opt.dt = n <= 6 ? 0.5 : 1.0;
            const DensityMatrixScheduleSimulator sim(dev, lib, opt);

            Rng rng{uint64_t(n)};
            const DensityMatrix rho0 = randomState(rng, n);
            const DensityMatrix got = runPooledAndNested(sim, sched, rho0);
            if (n <= 6) {
                oracle::Dense want = rho0.matrix();
                oracle::runSchedule(sched, dev, lib, opt.dt, decoherent,
                                    want);
                EXPECT_LE(maxAbsDiff(got.matrix(), want), kTol);
            }
            EXPECT_NEAR(got.trace(), 1.0, 1e-9);
            // The schedule did move the state.
            CMatrix moved = got.matrix();
            moved -= rho0.matrix();
            EXPECT_GT(moved.frobeniusNorm(),
                      0.1 * rho0.matrix().frobeniusNorm());
        }
    }
}

TEST(KernelEquivalence, DensityIdleQubitSplitMatchesDenseOracleOnCompiledSchedules)
{
    // ParSched and ZZXSched layers on the fig. 23 register kind, with
    // heterogeneous T1/T2.  Pooled and nested-inline runs agree to the
    // bit; at n = 5 and 6 they track the dense oracle.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (const graph::Topology &topo : densitySplitTopologies()) {
        const int n = topo.g.numVertices();
        Rng dev_rng(11);
        const dev::Device dev =
            lossy(dev::Device(topo, dev::DeviceParams{}, dev_rng));
        PulseSimOptions opt;
        opt.dt = 1.0;
        const DensityMatrixScheduleSimulator sim(dev, lib, opt);
        const DensityMatrix zero(n);
        for (const core::Schedule &sched : compiledSchedules(dev)) {
            SCOPED_TRACE("n=" + std::to_string(n));
            const DensityMatrix got = runPooledAndNested(sim, sched, zero);
            if (n <= 6) {
                oracle::Dense want = zero.matrix();
                oracle::runSchedule(sched, dev, lib, opt.dt, true, want);
                EXPECT_LE(maxAbsDiff(got.matrix(), want), kTol);
            }
            EXPECT_NEAR(got.trace(), 1.0, 1e-9);
            EXPECT_LT(got.expectationPure(StateVector(n)), 0.99);
        }
    }
}

std::span<cplx>
entries(StateVector &psi)
{
    return psi.amplitudes();
}

/** The ZZ phase table of a whole register for the unit phases @p p:
 *  p itself on a state vector, p[r] * conj(p[c]) on a density matrix. */
std::vector<cplx>
wholeTable(const StateVector &, const la::CVector &p)
{
    return p;
}

std::vector<cplx>
wholeTable(const DensityMatrix &rho, const la::CVector &p)
{
    const std::vector<size_t> index = identityIndex(rho.dim());
    std::vector<cplx> table(rho.dim() * rho.dim());
    phaseTable(table, rho.dim(), index, index, p);
    return table;
}

/**
 * The step loop of the schedule simulators, replayed layer by layer
 * on the whole register through the public kernels in the same order,
 * with the same propagators, per-entry tables and Kraus factors: the
 * unsplit reference the split must match bit for bit.  @p kraus (a
 * density matrix only) selects the T1/T2 channel between unmerged
 * half-steps: every qubit's transfer after the trailing half-step,
 * its entrywise scale S folded into the next leading half-step, and
 * one S pass at the end of the layer.  Without it the half-steps
 * merge.
 */
template <class Reg>
void
replayWholeRegister(const core::Schedule &sched, const dev::Device &dev,
                    const pulse::PulseLibrary &lib, double dt_opt,
                    bool kraus, Reg &reg)
{
    constexpr bool density = std::is_same_v<Reg, DensityMatrix>;
    const int n = dev.numQubits();
    std::vector<std::array<int, 2>> edges;
    std::vector<double> lambdas;
    for (const graph::Edge &e : dev.graph().edges()) {
        edges.push_back({e.u, e.v});
        lambdas.push_back(dev.coupling(e.id));
    }
    const std::vector<double> zz = zzEnergyTable(n, edges, lambdas);
    for (const core::Layer &layer : sched.layers) {
        if (layer.is_virtual) {
            for (const core::ScheduledGate &sg : layer.gates)
                reg.applyRz(sg.gate.qubits[0], sg.gate.params[0]);
            continue;
        }
        const size_t steps = std::max<size_t>(
            1, size_t(std::ceil(layer.duration / dt_opt)));
        const double dt = layer.duration / double(steps);
        std::vector<double> gamma(size_t(n), 0.0), keep(size_t(n), 1.0);
        for (int q = 0; q < n && kraus; ++q) {
            const double t1 = dev.t1(q), t2 = dev.t2(q);
            if (std::isfinite(t1))
                gamma[size_t(q)] = 1.0 - std::exp(-dt / t1);
            double rate = 0.0;
            if (std::isfinite(t2))
                rate = 1.0 / t2 - (std::isfinite(t1) ? 0.5 / t1 : 0.0);
            keep[size_t(q)] = std::exp(-dt * std::max(0.0, rate));
        }
        const std::vector<cplx> half =
            wholeTable(reg, phaseVector(zz, dt / 2.0));
        const std::vector<cplx> full = wholeTable(reg, phaseVector(zz, dt));
        std::vector<cplx> lead = half, scale;
        if constexpr (density) {
            const std::vector<size_t> index = identityIndex(reg.dim());
            scale.resize(half.size());
            scaleTable(scale, reg.dim(), index, index, gamma, keep);
            multiplyEntries(lead, scale);
        }

        for (size_t s = 0; s < steps; ++s) {
            if (s == 0 || kraus)
                multiplyEntries(entries(reg), s == 0 ? half : lead);
            const double t_mid = (double(s) + 0.5) * dt;
            for (const core::ScheduledGate &sg : layer.gates) {
                const pulse::PulseGate kind = pulseGateOf(sg.gate);
                const pulse::PulseProgram &prog = lib.get(kind);
                if (t_mid >= prog.duration)
                    continue;
                const auto &q = sg.gate.qubits;
                if (sg.gate.isTwoQubit()) {
                    la::Mat4 u;
                    drive2QStep(prog, t_mid, dt, u);
                    reg.apply2Q(u, q[0], q[1]);
                } else {
                    la::Mat2 u;
                    drive1QStep(prog, t_mid, dt, u);
                    reg.apply1Q(u, q[0]);
                }
            }
            multiplyEntries(entries(reg),
                            !kraus && s + 1 < steps ? full : half);
            if constexpr (density)
                for (int q = 0; q < n && kraus; ++q)
                    transferPopulation(entries(reg), reg.dim(),
                                       reg.dim() >> (q + 1),
                                       gamma[size_t(q)]);
        }
        if (kraus)
            multiplyEntries(entries(reg), scale);
    }
}

TEST(KernelEquivalence, DensityIdleQubitSplitIsBitIdenticalToWholeRegister)
{
    // The split reorders nothing: every entry sees the kernels of the
    // whole-register loop in the same order, including the Kraus
    // steps of split qubits that sit between busy ones, so the split
    // run and the whole-register replay agree to the bit at every
    // size, 8 qubits included.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (const graph::Topology &topo : densitySplitTopologies()) {
        const int n = topo.g.numVertices();
        Rng dev_rng(7);
        const dev::Device coherent(topo, dev::DeviceParams{}, dev_rng);
        std::vector<core::Schedule> scheds = compiledSchedules(coherent);
        scheds.push_back(splitCaseSchedule(n));
        for (const bool decoherent : {false, true}) {
            const dev::Device dev = decoherent ? lossy(coherent) : coherent;
            PulseSimOptions opt;
            opt.dt = 1.0;
            const DensityMatrixScheduleSimulator sim(dev, lib, opt);
            Rng rng{uint64_t(n)};
            const DensityMatrix rho0 = randomState(rng, n);
            for (const core::Schedule &sched : scheds) {
                SCOPED_TRACE("n=" + std::to_string(n) +
                             (decoherent ? " T1/T2" : " coherent"));
                DensityMatrix split = rho0, whole = rho0;
                sim.run(sched, split);
                replayWholeRegister(sched, dev, lib, opt.dt, decoherent,
                                    whole);
                EXPECT_TRUE(sameBits(split, whole));
            }
        }
    }
}

/** A virtual layer of RZ(theta) gates on (qubit, theta) pairs. */
core::Layer
virtualLayer(const std::vector<std::pair<int, double>> &rz)
{
    core::Layer l;
    l.is_virtual = true;
    for (const auto &[q, theta] : rz)
        l.gates.push_back({ckt::Gate(ckt::GateKind::RZ, {q}, {theta})});
    return l;
}

/** Step width of the segment-case schedule: the 20, 25 and 30 ns
 *  layers take 29, 36 and 43 steps, three different widths. */
constexpr double kSegmentDt = 0.7;

/**
 * Layers that cover the segments of a register of n >= 5 qubits.
 * Qubits 0 and 1 stay idle across three physical layers of two
 * widths, with RZs between them on those split qubits and on busy
 * ones; a layer with one idle qubit and a layer with none follow;
 * then an RZ layer and two layers whose idle qubits differ.  With
 * the idle pair that stays idle longest taken first, the layers fall
 * into 5 segments at n = 5 and 6 and 4 from n = 8 on (7 physical
 * layers).
 */
core::Schedule
segmentCaseSchedule(int n)
{
    core::Schedule s;
    s.num_qubits = n;
    s.layers.push_back(physicalLayer(qubitRange(4, n), {}, {{2, 3}}, 20.0));
    s.layers.push_back(virtualLayer({{0, 0.7}, {2, -0.4}, {1, 1.3}}));
    std::vector<int> sx = qubitRange(5, n);
    sx.push_back(2);
    s.layers.push_back(physicalLayer(sx, {}, {{3, 4}}, 30.0));
    s.layers.push_back(virtualLayer({{1, -0.9}, {n - 1, 0.5}}));
    s.layers.push_back(physicalLayer(qubitRange(3, n), {2}, {}, 20.0));
    // One idle qubit (n - 1), then none.
    s.layers.push_back(physicalLayer(qubitRange(0, n - 1), {}, {}, 25.0));
    s.layers.push_back(physicalLayer(qubitRange(2, n), {}, {{0, 1}}, 20.0));
    s.layers.push_back(virtualLayer({{0, 0.3}, {n - 1, -1.2}}));
    s.layers.push_back(physicalLayer({0, 1, 2}, {}, {}, 30.0));
    s.layers.push_back(physicalLayer({3}, {}, {{n - 1, n - 2}}, 20.0));
    return s;
}

TEST(KernelEquivalence, StateVectorSegmentsAreBitIdenticalToWholeRegister)
{
    // A segment gathers each part once, runs its layers, RZs and step
    // widths in order and scatters once: pooled, nested-inline and
    // whole-register replays agree to the bit.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (auto [rows, cols] : {std::pair{3, 3}, std::pair{3, 4}}) {
        const int n = rows * cols;
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto dev = gridDevice(rows, cols);
        const core::Schedule sched = segmentCaseSchedule(n);
        PulseSimOptions opt;
        opt.dt = kSegmentDt;
        Rng rng{uint64_t(n)};
        const StateVector psi0 = randomPureState(rng, n);
        const StateVector got =
            runPooledAndNested(PulseScheduleSimulator(dev, lib, opt), sched,
                               psi0);
        StateVector whole = psi0;
        replayWholeRegister(sched, dev, lib, opt.dt, false, whole);
        EXPECT_TRUE(sameBits(entries(got), entries(whole)));
        EXPECT_LT(got.fidelity(psi0), 0.99);
    }
}

TEST(KernelEquivalence, DensitySegmentsAreBitIdenticalToWholeRegister)
{
    // The same on XOR classes, coherent and with heterogeneous T1/T2:
    // an RZ on a split qubit scales whole blocks of the classes whose
    // row and column differ there.
    const auto lib = pulse::PulseLibrary::gaussian();
    for (const graph::Topology &topo :
         {graph::lineTopology(5), graph::gridTopology(2, 3)}) {
        const int n = topo.g.numVertices();
        Rng dev_rng(7);
        const dev::Device coherent(topo, dev::DeviceParams{}, dev_rng);
        const core::Schedule sched = segmentCaseSchedule(n);
        for (const bool decoherent : {false, true}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         (decoherent ? " T1/T2" : " coherent"));
            const dev::Device dev = decoherent ? lossy(coherent) : coherent;
            PulseSimOptions opt;
            opt.dt = kSegmentDt;
            Rng rng{uint64_t(n)};
            const DensityMatrix rho0 = randomState(rng, n);
            const DensityMatrix got = runPooledAndNested(
                DensityMatrixScheduleSimulator(dev, lib, opt), sched, rho0);
            DensityMatrix whole = rho0;
            replayWholeRegister(sched, dev, lib, opt.dt, decoherent, whole);
            EXPECT_TRUE(sameBits(got, whole));
            EXPECT_NEAR(got.trace(), 1.0, 1e-9);
        }
    }
}

/** The qzz_sim_* counts of one simulator flavor. */
struct SimCounts
{
    uint64_t layers, steps, phase, gate, decoh, setup, wait;

    static SimCounts
    now(const char *flavor)
    {
        const SimMetrics m = simMetrics(flavor);
        return {m.layers->value(),
                m.steps->value(),
                m.phase_ns->snapshot().count,
                m.gate_ns->snapshot().count,
                m.decoh_ns->snapshot().count,
                m.setup_ns->snapshot().count,
                m.wait_ns->snapshot().count};
    }
};

/** Runs @p sched from @p reg0 with telemetry off, then on; expects
 *  the same bits and returns the counts the second run added. */
template <class Reg>
SimCounts
countsOfRun(const dev::Device &dev, const core::Schedule &sched,
            const Reg &reg0, const char *flavor)
{
    const auto lib = pulse::PulseLibrary::gaussian();
    PulseSimOptions opt;
    opt.dt = kSegmentDt;
    opt.telemetry = false;
    Reg quiet = reg0, timed = reg0;
    ScheduleSimulator<Reg>(dev, lib, opt).run(sched, quiet);
    opt.telemetry = true;
    const ScheduleSimulator<Reg> sim(dev, lib, opt);
    const SimCounts before = SimCounts::now(flavor);
    sim.run(sched, timed);
    const SimCounts after = SimCounts::now(flavor);
    EXPECT_TRUE(std::ranges::equal(entries(quiet), entries(timed)))
        << "telemetry changed the register";
    return {after.layers - before.layers, after.steps - before.steps,
            after.phase - before.phase,   after.gate - before.gate,
            after.decoh - before.decoh,   after.setup - before.setup,
            after.wait - before.wait};
}

TEST(KernelEquivalence, TelemetryCountsLayersStepsAndSegments)
{
    // Counts only, no wall-clock bound: one observation per physical
    // layer of each kernel class (decoherence only with a channel), the
    // schedule's steps, and one setup and one wait per segment.  A
    // register below the split threshold runs as one segment.
    const core::Schedule probe = segmentCaseSchedule(5);
    uint64_t layers = 0, steps = 0;
    for (const core::Layer &l : probe.layers)
        if (!l.is_virtual) {
            ++layers;
            steps += size_t(std::ceil(l.duration / kSegmentDt));
        }
    ASSERT_EQ(layers, 7u);

    struct Case
    {
        std::string name;
        SimCounts got;
        uint64_t decoh, segments;
    };
    std::vector<Case> cases;
    for (auto [rows, cols, segments] :
         {std::tuple{2, 3, 1}, std::tuple{3, 3, 4}}) {
        const int n = rows * cols;
        cases.push_back({"state vector n=" + std::to_string(n),
                         countsOfRun(gridDevice(rows, cols),
                                     segmentCaseSchedule(n), StateVector(n),
                                     "statevector"),
                         0, uint64_t(segments)});
    }
    Rng dev_rng(7);
    const dev::Device coherent(graph::lineTopology(5), dev::DeviceParams{},
                               dev_rng);
    for (const bool decoherent : {false, true}) {
        Rng rng(5);
        cases.push_back(
            {decoherent ? "density T1/T2" : "density coherent",
             countsOfRun(decoherent ? lossy(coherent) : coherent, probe,
                         randomState(rng, 5), "density"),
             decoherent ? layers : 0, 5});
    }
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EQ(c.got.layers, layers);
        EXPECT_EQ(c.got.steps, steps);
        EXPECT_EQ(c.got.phase, layers);
        EXPECT_EQ(c.got.gate, layers);
        EXPECT_EQ(c.got.decoh, c.decoh);
        EXPECT_EQ(c.got.setup, c.segments);
        EXPECT_EQ(c.got.wait, c.segments);
    }
}

} // namespace
} // namespace qzz::sim
