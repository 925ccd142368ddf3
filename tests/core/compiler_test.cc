/**
 * @file
 * Tests for the compiler (core/compiler.h): the builder, the four
 * stages, the structured status channel, per-stage diagnostics, an
 * injected pulse library, and the schedule stage's agreement with
 * core::schedule().
 */

#include "core/compiler.h"

#include <gtest/gtest.h>

#include <sstream>

#include "circuit/benchmarks.h"
#include "common/error.h"
#include "common/units.h"
#include "core/dcg.h"
#include "core/schedule_io.h"
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

/** Serialize a schedule so two compiles can be compared bit-for-bit. */
std::string
scheduleFingerprint(const Schedule &schedule,
                    const pulse::PulseLibrary &library)
{
    std::ostringstream os;
    ScheduleIoOptions opt;
    opt.sample_dt = 0.0;
    opt.pretty = false;
    writeScheduleJson(schedule, library, os, opt);
    return os.str();
}

ckt::QuantumCircuit
testCircuit(uint64_t seed = 7)
{
    Rng rng(seed);
    return ckt::qaoaMaxCut(6, 1, rng);
}

TEST(CompilerTest, BuilderProducesCompleteProgram)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .schedPolicy(SchedPolicy::Zzx)
                            .build();
    CompileResult result = compiler.compile(testCircuit());

    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.program.native.isNative());
    ASSERT_NE(result.program.library, nullptr);
    EXPECT_EQ(result.program.library->name(), "Gaussian");
    EXPECT_EQ(result.program.pulse_method, PulseMethod::Gaussian);
    EXPECT_EQ(result.program.sched_policy, SchedPolicy::Zzx);
    EXPECT_EQ(result.program.schedule.circuitGateCount(),
              int(result.program.native.size()));
    EXPECT_EQ(int(result.program.final_layout.size()), 6);
}

TEST(CompilerTest, DiagnosticsCoverEveryStage)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .schedPolicy(SchedPolicy::Zzx)
                            .build();
    CompileResult result = compiler.compile(testCircuit());

    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.diagnostics.stages.size(), 4u);
    EXPECT_EQ(result.diagnostics.stages[0].stage, "route");
    EXPECT_EQ(result.diagnostics.stages[1].stage, "lower");
    EXPECT_EQ(result.diagnostics.stages[2].stage, "schedule");
    EXPECT_EQ(result.diagnostics.stages[3].stage, "pulses");
    EXPECT_GT(result.diagnostics.stages[1].gates_added, 0);
    EXPECT_GT(result.diagnostics.stages[2].layers_added, 0);
    for (const StageDiagnostics &stage : result.diagnostics.stages)
        EXPECT_GE(stage.wall_ms, 0.0);
    EXPECT_GT(result.diagnostics.total_ms, 0.0);
    EXPECT_EQ(result.diagnostics.physical_layers,
              result.program.schedule.physicalLayerCount());
    EXPECT_DOUBLE_EQ(result.diagnostics.execution_time_ns,
                     result.program.schedule.executionTime());
    EXPECT_DOUBLE_EQ(result.diagnostics.mean_nc,
                     result.program.schedule.meanNc());
    EXPECT_EQ(result.diagnostics.max_nq,
              result.program.schedule.maxNq());
}

TEST(CompilerTest, RoutingDiagnosticsCountSwaps)
{
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.cx(0, 5); // distance 3 on the 2x3 grid: SWAPs required
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compile(c);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.diagnostics.swaps_inserted, 0);
    // The layout permutation reflects the SWAP walk.
    std::vector<int> identity{0, 1, 2, 3, 4, 5};
    EXPECT_NE(result.program.final_layout, identity);
}

TEST(CompilerTest, StatusChannelReportsEmptyInput)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev).build();
    CompileResult result = compiler.compileSegments({});
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.code, CompileStatusCode::InvalidInput);
    EXPECT_NE(result.status.message.find("no segments"),
              std::string::npos);
}

TEST(CompilerTest, StatusChannelReportsOversizedCircuit)
{
    auto dev = device23();
    ckt::QuantumCircuit c(12); // larger than the 6-qubit device
    c.h(0);
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compile(c);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.code, CompileStatusCode::InvalidInput);
    EXPECT_EQ(result.status.pass, "route");
}

TEST(CompilerTest, StatusChannelReportsSegmentSizeMismatch)
{
    auto dev = device23();
    std::vector<ckt::QuantumCircuit> segments;
    segments.emplace_back(6);
    segments.emplace_back(4);
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compileSegments(segments);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.pass, "route");
}

TEST(CompilerTest, SchedulePassMatchesCoreSchedule)
{
    // The schedule stage is core::schedule() under options.sched,
    // with the CutTables build() made once: every policy's compiled
    // schedule equals a direct call on the compiled native circuit.
    auto dev = device23();
    ckt::QuantumCircuit c = testCircuit(9);
    for (SchedPolicy policy :
         {SchedPolicy::Par, SchedPolicy::Zzx, SchedPolicy::ZzxWeighted,
          SchedPolicy::Exact, SchedPolicy::CycleAware}) {
        CompileOptions opt;
        opt.pulse = PulseMethod::Gaussian;
        opt.sched = policy;
        const CompiledProgram program = unwrapOrThrow(
            CompilerBuilder(dev).options(opt).build().compile(c));
        const Schedule direct = schedule(
            policy, program.native, dev,
            GateDurations::fromLibrary(*program.library));
        EXPECT_EQ(scheduleFingerprint(program.schedule, *program.library),
                  scheduleFingerprint(direct, *program.library))
            << schedPolicyName(policy);
    }
}

TEST(CompilerTest, FixedPulseProviderInjectsLibrary)
{
    // DD composition: every gate comes from the fixed DD-substituted
    // library injected through CompilerBuilder::pulseLibrary(), not
    // from the method's own (DCG would stretch SX to 120 ns), and no
    // process-global cache is involved.
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.sx(0);
    Compiler compiler =
        CompilerBuilder(dev)
            .pulseMethod(PulseMethod::DCG)
            .schedPolicy(SchedPolicy::Zzx)
            .pulseLibrary(std::make_shared<const pulse::PulseLibrary>(
                substituteIdentity(pulse::PulseLibrary::gaussian(),
                                   dcgIdentity())))
            .build();
    CompileResult result = compiler.compile(c);
    ASSERT_TRUE(result.ok());
    ASSERT_NE(result.program.library, nullptr);
    EXPECT_EQ(result.program.library->name(), "Gaussian+DD");
    EXPECT_EQ(result.program.pulse_method, PulseMethod::DCG);
    // ZZXSched supplements identities on the idle qubits; they are the
    // 40 ns DCG sequence, and the layer lasts as long as its longest
    // pulse.
    int supplemented = 0;
    for (const Layer &layer : result.program.schedule.layers)
        for (const ScheduledGate &sg : layer.gates)
            supplemented += sg.supplemented ? 1 : 0;
    EXPECT_GT(supplemented, 0);
    ASSERT_EQ(result.program.schedule.physicalLayerCount(), 1);
    EXPECT_DOUBLE_EQ(result.program.schedule.executionTime(), 40.0);

    EXPECT_THROW(CompilerBuilder(dev).pulseLibrary(nullptr), UserError);
}

TEST(CompilerTest, ProgramOwnsLibraryAcrossCacheClear)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compile(testCircuit());
    ASSERT_TRUE(result.ok());
    clearPulseLibraryCache();
    // shared_ptr ownership keeps the library valid after the clear.
    EXPECT_EQ(result.program.library->name(), "Gaussian");
    EXPECT_TRUE(result.program.library->has(pulse::PulseGate::SX));
}

TEST(CompilerTest, SemanticsPreservedThroughPipeline)
{
    auto dev = device23();
    Rng rng(9);
    ckt::QuantumCircuit c = ckt::hiddenShift(6, rng);
    Compiler par = CompilerBuilder(dev)
                       .pulseMethod(PulseMethod::Gaussian)
                       .schedPolicy(SchedPolicy::Par)
                       .build();
    Compiler zzx = CompilerBuilder(dev)
                       .pulseMethod(PulseMethod::Gaussian)
                       .schedPolicy(SchedPolicy::Zzx)
                       .build();
    CompileResult a = par.compile(c);
    CompileResult b = zzx.compile(c);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    auto psi_a = sim::runIdealSchedule(a.program.schedule);
    auto psi_b = sim::runIdealSchedule(b.program.schedule);
    EXPECT_NEAR(psi_a.fidelity(psi_b), 1.0, 1e-9);
}

} // namespace
} // namespace qzz::core
