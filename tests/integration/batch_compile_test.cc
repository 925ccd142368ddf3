/**
 * @file
 * Integration test for Compiler::compileBatch(): a 12-qubit workload
 * compiled across a thread pool must produce bit-identical schedules
 * to sequential compilation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "circuit/benchmarks.h"
#include "core/compiler.h"
#include "core/schedule_io.h"
#include "graph/topologies.h"

namespace qzz::core {
namespace {

std::string
fingerprint(const CompiledProgram &prog)
{
    std::ostringstream os;
    ScheduleIoOptions opt;
    opt.sample_dt = 0.0;
    opt.pretty = false;
    writeScheduleJson(prog.schedule, *prog.library, os, opt);
    return os.str();
}

std::vector<ckt::QuantumCircuit>
workload12(int count)
{
    std::vector<ckt::QuantumCircuit> out;
    for (uint64_t seed = 1; seed <= uint64_t(count); ++seed) {
        Rng rng(seed);
        out.push_back(ckt::googleRandom(12, 6, rng));
    }
    return out;
}

TEST(BatchCompileTest, MatchesSequentialBitForBit)
{
    Rng rng(2);
    dev::Device device(graph::gridTopology(3, 4), dev::DeviceParams{},
                       rng);
    const auto circuits = workload12(8);
    const Compiler compiler = CompilerBuilder(device)
                                  .pulseMethod(PulseMethod::Gaussian)
                                  .schedPolicy(SchedPolicy::Zzx)
                                  .build();

    std::vector<CompileResult> sequential;
    for (const ckt::QuantumCircuit &c : circuits)
        sequential.push_back(compiler.compile(c));

    BatchOptions opt;
    opt.num_threads = 4;
    const BatchResult batch = compiler.compileBatch(circuits, opt);

    ASSERT_TRUE(batch.allOk());
    ASSERT_EQ(batch.results.size(), circuits.size());
    EXPECT_EQ(batch.threads_used, 4);
    for (size_t i = 0; i < circuits.size(); ++i) {
        ASSERT_TRUE(sequential[i].ok());
        EXPECT_EQ(fingerprint(batch.results[i].program),
                  fingerprint(sequential[i].program))
            << "circuit " << i << " diverged under batch compilation";
    }
    // The workers share one pulse library instance.
    for (const CompileResult &r : batch.results)
        EXPECT_EQ(r.program.library.get(),
                  batch.results.front().program.library.get());
}

TEST(BatchCompileTest, SingleThreadBatchStillMatches)
{
    Rng rng(2);
    dev::Device device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
    std::vector<ckt::QuantumCircuit> circuits;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Rng crng(seed);
        circuits.push_back(ckt::hiddenShift(6, crng));
    }
    const Compiler compiler = CompilerBuilder(device)
                                  .pulseMethod(PulseMethod::Gaussian)
                                  .schedPolicy(SchedPolicy::Par)
                                  .build();
    BatchOptions opt;
    opt.num_threads = 1;
    const BatchResult batch = compiler.compileBatch(circuits, opt);
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(batch.threads_used, 1);
    for (size_t i = 0; i < circuits.size(); ++i) {
        CompileResult direct = compiler.compile(circuits[i]);
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(fingerprint(batch.results[i].program),
                  fingerprint(direct.program));
    }
}

TEST(BatchCompileTest, FailuresLandPerCircuit)
{
    Rng rng(2);
    dev::Device device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
    std::vector<ckt::QuantumCircuit> circuits;
    circuits.emplace_back(6, "fits");
    circuits.back().h(0);
    circuits.emplace_back(12, "too-big"); // exceeds the device
    circuits.back().h(0);
    const Compiler compiler = CompilerBuilder(device)
                                  .pulseMethod(PulseMethod::Gaussian)
                                  .build();
    const BatchResult batch = compiler.compileBatch(circuits);
    ASSERT_EQ(batch.results.size(), 2u);
    EXPECT_TRUE(batch.results[0].ok());
    EXPECT_FALSE(batch.results[1].ok());
    EXPECT_FALSE(batch.allOk());
    EXPECT_EQ(batch.results[1].status.code,
              CompileStatusCode::InvalidInput);
}

} // namespace
} // namespace qzz::core
