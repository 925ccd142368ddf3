/**
 * @file
 * Heap budget of the Strang step loop on both registers.
 *
 * The step loop promises no heap allocation per Strang step: the
 * propagator table and the Kraus factors are set up once per run, the
 * buffers of a segment's parts once per segment and their phase
 * tables once per step width of the segment.  This
 * binary replaces the global operator new with a counting one and
 * checks that promise over a 12-qubit state-vector run, whose segments
 * split into sub-registers across the shared pool, and over a
 * fig. 23-sized density-matrix run with T1/T2, whose segments split
 * into XOR classes of blocks.
 */

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "core/sched_walk.h"
#include "graph/topologies.h"
#include "sim/lindblad.h"
#include "sim/pulse_sim.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void *
countedAlloc(std::size_t sz)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(sz ? sz : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t sz)
{
    return countedAlloc(sz);
}

void *
operator new[](std::size_t sz)
{
    return countedAlloc(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qzz::sim {
namespace {

/** Strang steps the simulators take over @p sched at step @p dt. */
size_t
strangSteps(const core::Schedule &sched, double dt)
{
    size_t steps = 0;
    for (const core::Layer &l : sched.layers)
        if (!l.is_virtual && l.duration > 0.0)
            steps += size_t(std::ceil(l.duration / dt));
    return steps;
}

/** Heap allocations per Strang step of the second of two runs of
 *  @p sim (the first warms the pool and the metric handles). */
template <class Sim>
double
allocsPerStep(const Sim &sim, const core::Schedule &sched, double dt)
{
    const size_t steps = strangSteps(sched, dt);
    EXPECT_GT(steps, 0u);
    (void)sim.run(sched);
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    (void)sim.run(sched);
    g_counting.store(false, std::memory_order_relaxed);
    return double(g_allocs.load()) / double(steps);
}

TEST(SimAllocBudget, AtMostOneAllocationPerStepAtTwelveQubits)
{
    Rng rng(7);
    const dev::Device dev(graph::gridTopology(3, 4), dev::DeviceParams{},
                          rng);
    const int n = 12;
    ckt::QuantumCircuit c(n);
    for (int rep = 0; rep < 2; ++rep) {
        for (int q = 0; q < n; q += 2)
            c.sx(q);
        c.rzx(1, 2, kPi / 2.0);
        c.rzx(5, 9, kPi / 2.0);
    }
    const core::Schedule sched =
        core::schedule(core::SchedPolicy::Zzx, c, dev, core::GateDurations{});
    PulseSimOptions opt;
    opt.dt = 0.1;
    const PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian(),
                                     opt);
    const double per_step = allocsPerStep(sim, sched, opt.dt);
    EXPECT_LE(per_step, 1.0);
    RecordProperty("allocs_per_step", std::to_string(per_step));
}

TEST(SimAllocBudget, AtMostOneAllocationPerStepOnDecoherentDensityMatrix)
{
    // The fig. 23 register: 6 qubits at T1 = T2 = 100 us, so every
    // step runs the Kraus sweep between unmerged half-steps.
    Rng rng(7);
    const dev::Device dev =
        dev::Device(graph::gridTopology(2, 3), dev::DeviceParams{}, rng)
            .withCoherence(100000.0, 100000.0);
    const int n = 6;
    ckt::QuantumCircuit c(n);
    for (int rep = 0; rep < 2; ++rep) {
        for (int q = 0; q < n; ++q)
            c.sx(q);
        c.rzx(0, 1, kPi / 2.0);
        c.rzx(4, 5, kPi / 2.0);
    }
    const core::Schedule sched =
        core::schedule(core::SchedPolicy::Zzx, c, dev, core::GateDurations{});
    PulseSimOptions opt;
    opt.dt = 0.1;
    const DensityMatrixScheduleSimulator sim(
        dev, pulse::PulseLibrary::gaussian(), opt);
    const double per_step = allocsPerStep(sim, sched, opt.dt);
    EXPECT_LE(per_step, 1.0);
    RecordProperty("allocs_per_step", std::to_string(per_step));
}

} // namespace
} // namespace qzz::sim
