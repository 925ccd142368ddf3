/**
 * @file
 * Compilation-speed microbenchmarks (google-benchmark): the paper
 * reports < 0.25 s per benchmark for the whole co-optimizing compile
 * (Sec. 7.3).  Measures routing + lowering + ZZXSched, the inner
 * alpha-optimal suppression queries, and the overhead of the
 * stage-based Compiler API (pipeline bookkeeping, diagnostics,
 * batch fan-out) over the raw scheduling calls.
 *
 * Set QZZ_QUICK=1 for a fast smoke run (used by the CI smoke job,
 * which publishes the JSON output as the BENCH_compile_time.json
 * artifact so per-PR API-overhead regressions stay visible).
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "qzz.h"

using namespace qzz;

namespace {

dev::Device
makeDevice(int rows, int cols)
{
    Rng rng(2);
    return dev::Device(graph::gridTopology(rows, cols),
                       dev::DeviceParams{}, rng);
}

void
BM_ZzxCompileQft9(benchmark::State &state)
{
    auto device = makeDevice(3, 3);
    auto circuit = ckt::qft(9);
    for (auto _ : state) {
        auto native = ckt::decomposeToNative(
            ckt::routeCircuit(circuit, device.graph()).circuit);
        auto sched = core::schedule(core::SchedPolicy::Zzx, native, device,
                                       core::GateDurations{});
        benchmark::DoNotOptimize(sched.layers.size());
    }
}
BENCHMARK(BM_ZzxCompileQft9)->Unit(benchmark::kMillisecond);

void
BM_ZzxCompileGrc12(benchmark::State &state)
{
    auto device = makeDevice(3, 4);
    Rng rng(3);
    auto circuit = ckt::googleRandom(12, 6, rng);
    for (auto _ : state) {
        auto native = ckt::decomposeToNative(
            ckt::routeCircuit(circuit, device.graph()).circuit);
        auto sched = core::schedule(core::SchedPolicy::Zzx, native, device,
                                       core::GateDurations{});
        benchmark::DoNotOptimize(sched.layers.size());
    }
}
BENCHMARK(BM_ZzxCompileGrc12)->Unit(benchmark::kMillisecond);

void
BM_ParCompileGrc12(benchmark::State &state)
{
    auto device = makeDevice(3, 4);
    Rng rng(3);
    auto circuit = ckt::googleRandom(12, 6, rng);
    for (auto _ : state) {
        auto native = ckt::decomposeToNative(
            ckt::routeCircuit(circuit, device.graph()).circuit);
        auto sched = core::parSchedule(native, device,
                                       core::GateDurations{});
        benchmark::DoNotOptimize(sched.layers.size());
    }
}
BENCHMARK(BM_ParCompileGrc12)->Unit(benchmark::kMillisecond);

void
BM_AlphaOptimalSuppression(benchmark::State &state)
{
    core::SuppressionSolver solver(graph::gridTopology(3, 4));
    for (auto _ : state) {
        auto res = solver.solve({5, 6});
        benchmark::DoNotOptimize(res.metrics.nc);
    }
}
BENCHMARK(BM_AlphaOptimalSuppression)->Unit(benchmark::kMicrosecond);

void
BM_DualGraphConstruction(benchmark::State &state)
{
    auto topo = graph::gridTopology(5, 5);
    for (auto _ : state) {
        auto emb = topo.embedding();
        auto dual = graph::buildDual(emb);
        benchmark::DoNotOptimize(dual.g.numEdges());
    }
}
BENCHMARK(BM_DualGraphConstruction)->Unit(benchmark::kMicrosecond);

// --- Stage-based Compiler API overhead -------------------------------

/** Full Compiler pipeline (route+lower+schedule+pulses); comparing
 *  against BM_ZzxCompileGrc12 isolates the API overhead. */
void
BM_CompilerZzxGrc12(benchmark::State &state)
{
    auto device = makeDevice(3, 4);
    Rng rng(3);
    auto circuit = ckt::googleRandom(12, 6, rng);
    auto compiler = core::CompilerBuilder(device)
                        .pulseMethod(core::PulseMethod::Gaussian)
                        .schedPolicy(core::SchedPolicy::Zzx)
                        .build();
    for (auto _ : state) {
        auto result = compiler.compile(circuit);
        benchmark::DoNotOptimize(result.program.schedule.layers.size());
    }
}
BENCHMARK(BM_CompilerZzxGrc12)->Unit(benchmark::kMillisecond);

/** A fresh Compiler per call: the per-device tables are rebuilt for
 *  every circuit. */
void
BM_ShimCompileGrc12(benchmark::State &state)
{
    auto device = makeDevice(3, 4);
    Rng rng(3);
    auto circuit = ckt::googleRandom(12, 6, rng);
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Zzx;
    for (auto _ : state) {
        auto prog = core::unwrapOrThrow(
            core::CompilerBuilder(device).options(opt).build().compile(
                circuit));
        benchmark::DoNotOptimize(prog.schedule.layers.size());
    }
}
BENCHMARK(BM_ShimCompileGrc12)->Unit(benchmark::kMillisecond);

/** Per-device table precomputation paid once per CompilerBuilder. */
void
BM_CompilerBuild(benchmark::State &state)
{
    auto device = makeDevice(3, 4);
    for (auto _ : state) {
        auto compiler = core::CompilerBuilder(device)
                            .pulseMethod(core::PulseMethod::Gaussian)
                            .schedPolicy(core::SchedPolicy::Zzx)
                            .build();
        benchmark::DoNotOptimize(&compiler.device());
    }
}
BENCHMARK(BM_CompilerBuild)->Unit(benchmark::kMicrosecond);

/** Batch fan-out: 8 GRC-12 circuits over N worker threads. */
void
BM_CompileBatch8(benchmark::State &state)
{
    auto device = makeDevice(3, 4);
    std::vector<ckt::QuantumCircuit> workload;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        workload.push_back(ckt::googleRandom(12, 6, rng));
    }
    auto compiler = core::CompilerBuilder(device)
                        .pulseMethod(core::PulseMethod::Gaussian)
                        .schedPolicy(core::SchedPolicy::Zzx)
                        .build();
    core::BatchOptions opt;
    opt.num_threads = int(state.range(0));
    for (auto _ : state) {
        auto batch = compiler.compileBatch(workload, opt);
        benchmark::DoNotOptimize(batch.results.size());
    }
}
BENCHMARK(BM_CompileBatch8)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_PulseLayerStep12Qubits(benchmark::State &state)
{
    auto device = makeDevice(3, 4);
    pulse::PulseLibrary lib = pulse::PulseLibrary::gaussian();
    ckt::QuantumCircuit c(12);
    for (int q = 0; q < 12; ++q)
        c.sx(q);
    auto sched =
        core::parSchedule(c, device, core::GateDurations{});
    sim::PulseScheduleSimulator sim(device, lib);
    for (auto _ : state) {
        auto psi = sim.run(sched);
        benchmark::DoNotOptimize(psi.norm());
    }
}
BENCHMARK(BM_PulseLayerStep12Qubits)->Unit(benchmark::kMillisecond);

} // namespace

/** BENCHMARK_MAIN(), plus quick mode: QZZ_QUICK=1 caps the per-bench
 *  measuring time unless the caller passed --benchmark_min_time
 *  explicitly. */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    std::string quick_flag = "--benchmark_min_time=0.05";
    if (exp::quickMode()) {
        bool has_min_time = false;
        for (const char *a : args)
            has_min_time = has_min_time ||
                           std::string(a).rfind("--benchmark_min_time",
                                                0) == 0;
        if (!has_min_time)
            args.insert(args.begin() + 1, quick_flag.data());
    }
    int args_count = int(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
