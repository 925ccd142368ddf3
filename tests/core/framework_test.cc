#include "core/framework.h"

#include <gtest/gtest.h>

#include "core/compiler.h"

#include "circuit/benchmarks.h"
#include "common/units.h"
#include "graph/topologies.h"
#include "sim/ideal_sim.h"

namespace qzz::core {
namespace {

dev::Device
device23(uint64_t seed = 3)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
}

/** Compile through a fresh Compiler; a failed compile throws. */
CompiledProgram
compile(const ckt::QuantumCircuit &c, const dev::Device &dev,
        const CompileOptions &opt)
{
    return unwrapOrThrow(CompilerBuilder(dev).options(opt).build().compile(c));
}

TEST(FrameworkTest, PolicyNames)
{
    EXPECT_EQ(schedPolicyName(SchedPolicy::Par), "ParSched");
    EXPECT_EQ(schedPolicyName(SchedPolicy::Zzx), "ZZXSched");
    EXPECT_EQ(schedPolicyName(SchedPolicy::ZzxWeighted), "ZzxWeighted");
    EXPECT_EQ(schedPolicyName(SchedPolicy::Exact), "ExactSched");
    EXPECT_EQ(schedPolicyName(SchedPolicy::CycleAware), "CycleAware");
}

TEST(FrameworkTest, PolicyNameRoundTrips)
{
    for (SchedPolicy p :
         {SchedPolicy::Par, SchedPolicy::Zzx, SchedPolicy::ZzxWeighted,
          SchedPolicy::Exact, SchedPolicy::CycleAware}) {
        auto parsed = schedPolicyFromName(schedPolicyName(p));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, p);
    }
    // Enum spellings and case-insensitivity for CLI use.
    EXPECT_EQ(schedPolicyFromName("par"), SchedPolicy::Par);
    EXPECT_EQ(schedPolicyFromName("zzx"), SchedPolicy::Zzx);
    EXPECT_EQ(schedPolicyFromName("zzxsched"), SchedPolicy::Zzx);
    EXPECT_EQ(schedPolicyFromName("zzxweighted"),
              SchedPolicy::ZzxWeighted);
    EXPECT_EQ(schedPolicyFromName("weighted"), SchedPolicy::ZzxWeighted);
    EXPECT_EQ(schedPolicyFromName("exact"), SchedPolicy::Exact);
    EXPECT_EQ(schedPolicyFromName("exactsched"), SchedPolicy::Exact);
    EXPECT_EQ(schedPolicyFromName("cycle"), SchedPolicy::CycleAware);
    EXPECT_EQ(schedPolicyFromName("cycleaware"),
              SchedPolicy::CycleAware);
    EXPECT_FALSE(schedPolicyFromName("").has_value());
    EXPECT_FALSE(schedPolicyFromName("asap").has_value());
}

TEST(FrameworkTest, PolicyNameListingCoversEveryPolicy)
{
    // The canonical listing drives CLI validation messages and the
    // compile_server --help text: every enum value must appear, in
    // enum order, and every listed name must parse back to itself.
    const std::vector<std::string> &names = schedPolicyNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "ParSched");
    EXPECT_EQ(names[1], "ZZXSched");
    EXPECT_EQ(names[2], "ZzxWeighted");
    EXPECT_EQ(names[3], "ExactSched");
    EXPECT_EQ(names[4], "CycleAware");
    for (size_t i = 0; i < names.size(); ++i) {
        auto parsed = schedPolicyFromName(names[i]);
        ASSERT_TRUE(parsed.has_value()) << names[i];
        EXPECT_EQ(size_t(*parsed), i) << names[i];
    }
}

TEST(FrameworkTest, CompiledProgramIsComplete)
{
    auto dev = device23();
    Rng rng(7);
    ckt::QuantumCircuit c = ckt::qaoaMaxCut(6, 1, rng);
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    opt.sched = SchedPolicy::Zzx;
    CompiledProgram prog = compile(c, dev, opt);

    EXPECT_TRUE(prog.native.isNative());
    EXPECT_TRUE(ckt::respectsConnectivity(prog.native, dev.graph()));
    ASSERT_NE(prog.library, nullptr);
    EXPECT_EQ(prog.library->name(), "Gaussian");
    EXPECT_EQ(prog.schedule.circuitGateCount(),
              int(prog.native.size()));
}

TEST(FrameworkTest, BothPoliciesAgreeOnSemantics)
{
    auto dev = device23();
    Rng rng(9);
    ckt::QuantumCircuit c = ckt::hiddenShift(6, rng);
    CompileOptions par;
    par.pulse = PulseMethod::Gaussian;
    par.sched = SchedPolicy::Par;
    CompileOptions zzx = par;
    zzx.sched = SchedPolicy::Zzx;
    auto a = sim::runIdealSchedule(
        compile(c, dev, par).schedule);
    auto b = sim::runIdealSchedule(
        compile(c, dev, zzx).schedule);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);
}

TEST(FrameworkTest, DcgLibraryStretchesDurations)
{
    // DCG identity is 40 ns and SX 120 ns; schedules must reflect it.
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.sx(0);
    CompileOptions opt;
    opt.pulse = PulseMethod::DCG;
    opt.sched = SchedPolicy::Zzx;
    CompiledProgram prog = compile(c, dev, opt);
    ASSERT_EQ(prog.schedule.physicalLayerCount(), 1);
    // Layer duration = max(SX 120 ns, supplemented identity 40 ns).
    EXPECT_DOUBLE_EQ(prog.schedule.executionTime(), 120.0);
}

TEST(FrameworkTest, EmptyCircuitYieldsEmptySchedule)
{
    auto dev = device23();
    ckt::QuantumCircuit c(6, "empty");
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    CompiledProgram prog = compile(c, dev, opt);
    EXPECT_EQ(prog.schedule.physicalLayerCount(), 0);
    EXPECT_DOUBLE_EQ(prog.schedule.executionTime(), 0.0);
}

TEST(FrameworkTest, RoutingHandlesNonAdjacentGates)
{
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.cx(0, 5); // distance 3 on the 2x3 grid
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    CompiledProgram prog = compile(c, dev, opt);
    EXPECT_TRUE(ckt::respectsConnectivity(prog.native, dev.graph()));
    EXPECT_GT(prog.native.twoQubitCount(), 1); // SWAPs inserted
}

} // namespace
} // namespace qzz::core
