/**
 * @file
 * Golden pins of every scheduling policy's output.
 *
 * Each SchedPolicy compiles three suite circuits on two 6-qubit
 * devices — a uniform 2x3 grid and a triangulated 2x3 grid with one
 * strong coupler — and the schedule's JSON form (no waveform samples,
 * compact) is hashed with svc::FingerprintBuilder.  The hex values
 * were recorded once; any change to routing, lowering, the frontier
 * walk or a policy's cut source that moves a single layer, side or
 * duration shows up here.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "circuit/benchmarks.h"
#include "common/units.h"
#include "core/compiler.h"
#include "core/schedule_io.h"
#include "graph/topologies.h"
#include "service/fingerprint.h"

namespace qzz::core {
namespace {

dev::Device
uniformGrid()
{
    const graph::Topology topo = graph::gridTopology(2, 3);
    const std::vector<double> zz(size_t(topo.g.numEdges()), khz(200.0));
    return dev::Device(topo, dev::DeviceParams{}, zz);
}

dev::Device
strongCouplerGrid()
{
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    std::vector<double> zz(size_t(topo.g.numEdges()), khz(200.0));
    zz[3] = khz(10000.0);
    return dev::Device(topo, dev::DeviceParams{}, zz);
}

ckt::QuantumCircuit
circuitNamed(const std::string &name)
{
    if (name == "qaoa6") {
        Rng rng(7);
        return ckt::qaoaMaxCut(6, 1, rng);
    }
    if (name == "qft6")
        return ckt::qft(6);
    return ckt::isingChain(6, 2);
}

std::string
scheduleHash(const CompiledProgram &program)
{
    std::ostringstream os;
    ScheduleIoOptions opt;
    opt.sample_dt = 0.0;
    opt.pretty = false;
    writeScheduleJson(program.schedule, *program.library, os, opt);
    return svc::FingerprintBuilder().mix(os.str()).finish().hex();
}

struct Golden
{
    SchedPolicy policy;
    const char *device;
    const char *circuit;
    const char *hash;
};

const Golden kGolden[] = {
    {SchedPolicy::Par, "uniform", "qaoa6",
     "54967ec37d8687c53351d8c1ff5406cb"},
    {SchedPolicy::Par, "uniform", "qft6",
     "75af75cd4801ac6536003b1f07fd9f69"},
    {SchedPolicy::Par, "uniform", "ising6",
     "49b1e0260f4b8a2b4a2296c36e7fe0de"},
    {SchedPolicy::Par, "strong", "qaoa6",
     "f89b9fee850c7f1f9f65cf2690f1cefb"},
    {SchedPolicy::Par, "strong", "qft6",
     "aa5a516e6fe3101fcdf2f998953cc757"},
    {SchedPolicy::Par, "strong", "ising6",
     "a0d18dd6af7d9ecb645ec7090cffc61c"},
    {SchedPolicy::Zzx, "uniform", "qaoa6",
     "9653612b0dbf3b584c6bf43cee4bf910"},
    {SchedPolicy::Zzx, "uniform", "qft6",
     "4d437d2905a47436275ec4d604a09abb"},
    {SchedPolicy::Zzx, "uniform", "ising6",
     "ae306fdd4e4a21c8391c247639048e83"},
    {SchedPolicy::Zzx, "strong", "qaoa6",
     "1c3f7ee638dc5c976c09720f629c61ce"},
    {SchedPolicy::Zzx, "strong", "qft6",
     "b1aaba435a05daaa41017b64ffc1985b"},
    {SchedPolicy::Zzx, "strong", "ising6",
     "fc64960ae2ac7d67e3feb17ae1827865"},
    {SchedPolicy::ZzxWeighted, "uniform", "qaoa6",
     "9653612b0dbf3b584c6bf43cee4bf910"},
    {SchedPolicy::ZzxWeighted, "uniform", "qft6",
     "4d437d2905a47436275ec4d604a09abb"},
    {SchedPolicy::ZzxWeighted, "uniform", "ising6",
     "ae306fdd4e4a21c8391c247639048e83"},
    {SchedPolicy::ZzxWeighted, "strong", "qaoa6",
     "1c3f7ee638dc5c976c09720f629c61ce"},
    {SchedPolicy::ZzxWeighted, "strong", "qft6",
     "8f1f60f4f64650659b031de97b4f72d1"},
    {SchedPolicy::ZzxWeighted, "strong", "ising6",
     "fc64960ae2ac7d67e3feb17ae1827865"},
    {SchedPolicy::Exact, "uniform", "qaoa6",
     "a8441dbeff35a8f95c1cc679cce5ccb1"},
    {SchedPolicy::Exact, "uniform", "qft6",
     "2a8bef8558bf7b7c6b4041d3c56618c9"},
    {SchedPolicy::Exact, "uniform", "ising6",
     "21d7cfdd91e6f5f5ba394c49000fac2b"},
    {SchedPolicy::Exact, "strong", "qaoa6",
     "6aac953124b93d49307dcec9419343c3"},
    {SchedPolicy::Exact, "strong", "qft6",
     "3ee51acc9402251033a751a8f84ea518"},
    {SchedPolicy::Exact, "strong", "ising6",
     "b62aef2680cfe471dcf0bcd71e749bc6"},
    {SchedPolicy::CycleAware, "uniform", "qaoa6",
     "e45046657c1152ef313a4311d63f160e"},
    {SchedPolicy::CycleAware, "uniform", "qft6",
     "a6418462ba9f00a99a545710d41c354f"},
    {SchedPolicy::CycleAware, "uniform", "ising6",
     "e422653bd3ddae964533b9d3371ee25f"},
    {SchedPolicy::CycleAware, "strong", "qaoa6",
     "fd38d454ebf3e24dedcd7295b931b376"},
    {SchedPolicy::CycleAware, "strong", "qft6",
     "8f1f60f4f64650659b031de97b4f72d1"},
    {SchedPolicy::CycleAware, "strong", "ising6",
     "c12dd769c652db0469f1eed047b7300b"},
};

TEST(PolicyGoldenTest, EveryPolicyScheduleHashIsPinned)
{
    const dev::Device uniform = uniformGrid();
    const dev::Device strong = strongCouplerGrid();
    for (const Golden &g : kGolden) {
        const dev::Device &dev =
            std::string(g.device) == "uniform" ? uniform : strong;
        const CompiledProgram program = unwrapOrThrow(
            CompilerBuilder(dev)
                .pulseMethod(PulseMethod::Gaussian)
                .schedPolicy(g.policy)
                .build()
                .compile(circuitNamed(g.circuit)));
        EXPECT_EQ(scheduleHash(program), g.hash)
            << schedPolicyName(g.policy) << " on " << g.device << " / "
            << g.circuit;
    }
}

TEST(PolicyGoldenTest, PoliciesDisagreeOnTheStrongCouplerDevice)
{
    // The pins are only worth something if the policies are told
    // apart: on the heterogeneous snapshot the weighted, exact and
    // cycle-aware cut sources must not all collapse onto ZZXSched.
    int distinct_from_zzx = 0;
    for (const Golden &g : kGolden)
        for (const Golden &z : kGolden)
            if (g.policy != SchedPolicy::Zzx &&
                z.policy == SchedPolicy::Zzx &&
                std::string(g.device) == "strong" &&
                std::string(z.device) == "strong" &&
                std::string(g.circuit) == z.circuit &&
                std::string(g.hash) != z.hash)
                ++distinct_from_zzx;
    EXPECT_GT(distinct_from_zzx, 0);
}

} // namespace
} // namespace qzz::core
