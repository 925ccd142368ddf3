#include "sim/density_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/gate.h"
#include "common/error.h"
#include "common/units.h"
#include "sim/pulse_sim.h"

namespace qzz::sim {
namespace {

TEST(DensityMatrixTest, PureStateRoundTrip)
{
    StateVector psi(2);
    psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    DensityMatrix rho = DensityMatrix::fromPure(psi);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
}

TEST(DensityMatrixTest, UnitaryConjugationMatchesStateVector)
{
    StateVector psi(2);
    DensityMatrix rho(2);
    const la::Mat2 h = la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}}));
    const la::Mat4 cx =
        la::toMat4(ckt::gateMatrix({ckt::GateKind::CX, {0, 1}}));
    psi.apply1Q(h, 0);
    psi.apply2Q(cx, 0, 1);
    rho.apply1Q(h, 0);
    rho.apply2Q(cx, 0, 1);
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, RzMatchesStateVector)
{
    StateVector psi(1);
    DensityMatrix rho(1);
    const la::Mat2 h = la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}}));
    psi.apply1Q(h, 0);
    rho.apply1Q(h, 0);
    psi.applyRz(0, 0.9);
    rho.applyRz(0, 0.9);
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
}

TEST(DensityMatrixTest, DiagonalPhaseMatchesStateVector)
{
    StateVector psi(2);
    DensityMatrix rho(2);
    const la::Mat2 h = la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}}));
    for (int q = 0; q < 2; ++q) {
        psi.apply1Q(h, q);
        rho.apply1Q(h, q);
    }
    auto table = zzEnergyTable(2, {{0, 1}}, {khz(300.0)});
    const la::CVector phases = phaseVector(table, 15.0);
    psi.applyPhaseVector(phases);
    rho.applyPhaseVector(phases);
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
}

TEST(DensityMatrixTest, AmplitudeDampingDecaysExcitedState)
{
    DensityMatrix rho(1);
    rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::X, {0}})), 0);
    EXPECT_NEAR(rho.probabilityOne(0), 1.0, 1e-12);
    const double gamma = 0.25;
    rho.applyAmplitudeDamping(0, gamma);
    EXPECT_NEAR(rho.probabilityOne(0), 0.75, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, RepeatedDampingIsExponential)
{
    DensityMatrix rho(1);
    rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::X, {0}})), 0);
    const double dt = 10.0, t1 = 100.0;
    const double gamma = 1.0 - std::exp(-dt / t1);
    for (int i = 0; i < 10; ++i)
        rho.applyAmplitudeDamping(0, gamma);
    EXPECT_NEAR(rho.probabilityOne(0), std::exp(-100.0 / t1), 1e-9);
}

TEST(DensityMatrixTest, DephasingKillsCoherenceOnly)
{
    DensityMatrix rho(1);
    rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    rho.applyDephasing(0, 0.5);
    EXPECT_NEAR(rho.probabilityOne(0), 0.5, 1e-12); // populations kept
    EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.25, 1e-12);
}

TEST(DensityMatrixTest, DampingOnOneQubitLeavesOthersAlone)
{
    DensityMatrix rho(2);
    rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::X, {0}})), 0);
    rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::X, {0}})), 1);
    rho.applyAmplitudeDamping(0, 0.5);
    EXPECT_NEAR(rho.probabilityOne(0), 0.5, 1e-12);
    EXPECT_NEAR(rho.probabilityOne(1), 1.0, 1e-12);
}

TEST(DensityMatrixTest, PerQubitDecoherenceSweep)
{
    // Heterogeneous rates: qubit 0 damps, qubit 1 only dephases,
    // qubit 2 is untouched — in one sweep.
    DensityMatrix rho(3);
    for (int q = 0; q < 3; ++q)
        rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), q);
    rho.applyDecoherence({0.5, 0.0, 0.0}, {1.0, 0.5, 1.0});

    DensityMatrix expected(3);
    for (int q = 0; q < 3; ++q)
        expected.apply1Q(
            la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), q);
    expected.applyAmplitudeDamping(0, 0.5);
    expected.applyDephasing(1, 0.5);
    for (size_t r = 0; r < rho.dim(); ++r)
        for (size_t c = 0; c < rho.dim(); ++c)
            EXPECT_NEAR(std::abs(rho.matrix()(r, c) -
                                 expected.matrix()(r, c)),
                        0.0, 1e-14);

    EXPECT_THROW(rho.applyDecoherence({0.5}, {1.0}), UserError);
}

TEST(DensityMatrixTest, MixedStateExpectation)
{
    DensityMatrix rho(1);
    rho.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    rho.applyDephasing(0, 0.0); // fully mixed in x-basis
    StateVector plus(1);
    plus.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    EXPECT_NEAR(rho.expectationPure(plus), 0.5, 1e-12);
}

TEST(DensityMatrixTest, QubitIndicesAreRangeChecked)
{
    // Every overload that takes a qubit: an out-of-range index would
    // shift by a negative amount and write outside the matrix, and a
    // repeated 2Q index would corrupt it silently.
    DensityMatrix rho(3);
    const la::Mat2 m2 = la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}}));
    const la::Mat4 m4 =
        la::toMat4(ckt::gateMatrix({ckt::GateKind::CX, {0, 1}}));
    for (int bad : {-1, 3, 7}) {
        EXPECT_THROW(rho.apply1Q(m2, bad), UserError) << bad;
        EXPECT_THROW(rho.apply2Q(m4, bad, 0), UserError) << bad;
        EXPECT_THROW(rho.apply2Q(m4, 0, bad), UserError) << bad;
        EXPECT_THROW(rho.applyRz(bad, 0.3), UserError) << bad;
        EXPECT_THROW(rho.applyAmplitudeDamping(bad, 0.1), UserError) << bad;
        EXPECT_THROW(rho.applyDephasing(bad, 0.9), UserError) << bad;
        EXPECT_THROW(rho.applyDecoherence(bad, 0.1, 0.9), UserError) << bad;
        EXPECT_THROW((void)rho.probabilityOne(bad), UserError) << bad;
    }
    EXPECT_THROW(rho.apply2Q(m4, 1, 1), UserError);
    EXPECT_THROW(rho.apply2Q(m4, 2, 2), UserError);
    // Nothing was written: the register is still |000><000|.
    EXPECT_EQ(rho.matrix()(0, 0), la::cplx(1.0, 0.0));
    EXPECT_NEAR(rho.matrix().frobeniusNorm(), 1.0, 1e-15);
}

} // namespace
} // namespace qzz::sim
