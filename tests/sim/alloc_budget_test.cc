/**
 * @file
 * Heap budget of the state-vector simulator at the sizes that split.
 *
 * The step loop promises no heap allocation per Strang step: the
 * propagator table, the sub-register buffers and the phase tables are
 * set up once per layer.  This binary replaces the global operator
 * new with a counting one and checks that promise over a 12-qubit
 * run, whose layers split into sub-registers across the shared pool.
 */

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "core/zzx_sched.h"
#include "graph/topologies.h"
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
        core::zzxSchedule(c, dev, core::GateDurations{});
    PulseSimOptions opt;
    opt.dt = 0.1;
    size_t steps = 0;
    for (const core::Layer &l : sched.layers)
        if (!l.is_virtual && l.duration > 0.0)
            steps += size_t(std::ceil(l.duration / opt.dt));
    ASSERT_GT(steps, 0u);

    const PulseScheduleSimulator sim(dev, pulse::PulseLibrary::gaussian(),
                                     opt);
    StateVector psi(n);
    sim.run(sched, psi); // warm the pool and the metric handles
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    sim.run(sched, psi);
    g_counting.store(false, std::memory_order_relaxed);

    const double per_step = double(g_allocs.load()) / double(steps);
    EXPECT_LE(per_step, 1.0) << g_allocs.load() << " allocations over "
                             << steps << " steps";
    RecordProperty("allocs_per_step", std::to_string(per_step));
}

} // namespace
} // namespace qzz::sim
