#include "sim/state_vector.h"

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "common/error.h"
#include "common/units.h"
#include "linalg/fidelity.h"
#include "sim/pulse_sim.h"

namespace qzz::sim {
namespace {

TEST(StateVectorTest, StartsInZeroState)
{
    StateVector psi(3);
    EXPECT_EQ(psi.dim(), 8u);
    EXPECT_NEAR(std::abs(psi.amplitudes()[0]), 1.0, 1e-15);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-15);
}

TEST(StateVectorTest, Apply1QMatchesEmbedding)
{
    // Apply H to qubit 1 of 3 and compare against the dense operator.
    StateVector psi(3);
    psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 1);
    la::CMatrix full = la::embed(
        ckt::gateMatrix({ckt::GateKind::H, {0}}), {1}, 3);
    la::CVector expect(8, 0.0);
    expect[0] = 1.0;
    expect = full * expect;
    for (size_t k = 0; k < 8; ++k)
        EXPECT_NEAR(std::abs(psi.amplitudes()[k] - expect[k]), 0.0,
                    1e-12);
}

TEST(StateVectorTest, Apply2QMatchesEmbeddingBothOrders)
{
    for (auto [hi, lo] : {std::pair{0, 2}, {2, 0}}) {
        StateVector psi(3);
        psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), hi);
        psi.apply2Q(
            la::toMat4(ckt::gateMatrix({ckt::GateKind::CX, {0, 1}})), hi,
            lo);

        la::CVector expect(8, 0.0);
        expect[0] = 1.0;
        expect = la::embed(ckt::gateMatrix({ckt::GateKind::H, {0}}),
                           {hi}, 3) *
                 expect;
        expect = la::embed(ckt::gateMatrix({ckt::GateKind::CX, {0, 1}}),
                           {hi, lo}, 3) *
                 expect;
        for (size_t k = 0; k < 8; ++k)
            EXPECT_NEAR(std::abs(psi.amplitudes()[k] - expect[k]), 0.0,
                        1e-12)
                << "hi=" << hi << " k=" << k;
    }
}

TEST(StateVectorTest, BellStateProbabilities)
{
    StateVector psi(2);
    psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    psi.apply2Q(la::toMat4(ckt::gateMatrix({ckt::GateKind::CX, {0, 1}})),
                0, 1);
    EXPECT_NEAR(psi.probabilityOne(0), 0.5, 1e-12);
    EXPECT_NEAR(psi.probabilityOne(1), 0.5, 1e-12);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(StateVectorTest, RzPhases)
{
    StateVector psi(1);
    psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    psi.applyRz(0, kPi); // |+> -> |->
    psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    EXPECT_NEAR(psi.probabilityOne(0), 1.0, 1e-12);
}

TEST(StateVectorTest, DiagonalPhaseMatchesRz)
{
    // ZZ table for a single edge reproduces an RZZ rotation.
    StateVector a(2), b(2);
    a.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 0);
    a.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), 1);
    b = a;
    const double lambda = 0.01;
    const double t = 12.0;
    auto table = zzEnergyTable(2, {{0, 1}}, {lambda});
    a.applyPhaseVector(phaseVector(table, t));
    b.apply2Q(la::toMat4(ckt::gateMatrix(
                  {ckt::GateKind::RZZ, {0, 1}, {2.0 * lambda * t}})),
              0, 1);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
}

TEST(StateVectorTest, ZzEnergyTableValues)
{
    auto table = zzEnergyTable(2, {{0, 1}}, {0.5});
    // |00>: +, |01>: -, |10>: -, |11>: +.
    EXPECT_DOUBLE_EQ(table[0], 0.5);
    EXPECT_DOUBLE_EQ(table[1], -0.5);
    EXPECT_DOUBLE_EQ(table[2], -0.5);
    EXPECT_DOUBLE_EQ(table[3], 0.5);
}

TEST(StateVectorTest, OverlapAndFidelity)
{
    StateVector a(2), b(2);
    EXPECT_NEAR(std::abs(a.overlap(b)), 1.0, 1e-15);
    b.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::X, {0}})), 0);
    EXPECT_NEAR(a.fidelity(b), 0.0, 1e-15);
}

TEST(StateVectorTest, UnitaryPreservesNorm)
{
    StateVector psi(4);
    for (int q = 0; q < 4; ++q)
        psi.apply1Q(la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}})), q);
    psi.apply2Q(la::toMat4(ckt::gateMatrix(
                    {ckt::GateKind::RZX, {0, 1}, {kPi / 2.0}})),
                1, 3);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(StateVectorTest, QubitIndicesAreRangeChecked)
{
    // Every kernel that takes a qubit: an out-of-range index would
    // shift by a negative amount and write outside the register.
    StateVector psi(3);
    const la::Mat2 m2 = la::toMat2(ckt::gateMatrix({ckt::GateKind::H, {0}}));
    const la::Mat4 m4 =
        la::toMat4(ckt::gateMatrix({ckt::GateKind::CX, {0, 1}}));
    for (int bad : {-1, 3, 7}) {
        EXPECT_THROW(psi.apply1Q(m2, bad), UserError) << bad;
        EXPECT_THROW(psi.apply2Q(m4, bad, 0), UserError) << bad;
        EXPECT_THROW(psi.apply2Q(m4, 0, bad), UserError) << bad;
        EXPECT_THROW((void)psi.probabilityOne(bad), UserError) << bad;
    }
    EXPECT_THROW(psi.apply2Q(m4, 1, 1), UserError);
    // Nothing was written: the register is still |000>.
    EXPECT_EQ(psi.amplitudes()[0], la::cplx(1.0, 0.0));
    EXPECT_NEAR(psi.norm(), 1.0, 1e-15);
}

} // namespace
} // namespace qzz::sim
