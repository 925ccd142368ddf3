/**
 * @file
 * Calibration-snapshot compatibility tests at the service level:
 *
 *  - a device built from a uniform Calibration compiles to programs
 *    byte-identical (programArtifactString) to the historical
 *    DeviceParams construction path;
 *  - the request fingerprint is sensitive to every per-qubit /
 *    per-edge calibration field and to the snapshot epoch, and to
 *    nothing else (the id is provenance only) — golden-pinned;
 *  - two snapshot epochs cache separately in CompileService.
 */

#include <gtest/gtest.h>

#include "circuit/benchmarks.h"
#include "common/units.h"
#include "graph/topologies.h"
#include "service/artifact.h"
#include "service/compile_service.h"
#include "service/fingerprint.h"

namespace qzz::svc {
namespace {

dev::Device
shimDevice(uint64_t seed = 7)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
}

dev::Device
snapshotDevice(uint64_t seed = 7)
{
    Rng rng(seed);
    return dev::Device(
        graph::gridTopology(2, 3),
        dev::Calibration::sampled(graph::gridTopology(2, 3),
                                  dev::DeviceParams{}, rng));
}

ckt::QuantumCircuit
benchmark(int qubits = 6, uint64_t seed = 3)
{
    auto circuit = ckt::namedBenchmark("QFT", qubits, seed);
    EXPECT_TRUE(circuit.has_value());
    return *circuit;
}

TEST(CalibrationCompatTest, UniformSnapshotCompilesBitIdentical)
{
    // The acceptance bar of the refactor: the snapshot path must not
    // perturb a single byte of the compiled program relative to the
    // historical uniform DeviceParams path.
    const dev::Device shim = shimDevice();
    const dev::Device snap = snapshotDevice();
    EXPECT_EQ(fingerprintDevice(shim), fingerprintDevice(snap));

    const ckt::QuantumCircuit circuit = benchmark();
    for (const core::SchedPolicy sched :
         {core::SchedPolicy::Par, core::SchedPolicy::Zzx}) {
        core::CompileOptions opt;
        opt.pulse = core::PulseMethod::Pert;
        opt.sched = sched;
        const core::Compiler a =
            core::CompilerBuilder(shim).options(opt).build();
        const core::Compiler b =
            core::CompilerBuilder(snap).options(opt).build();
        const core::CompileResult ra = a.compile(circuit);
        const core::CompileResult rb = b.compile(circuit);
        ASSERT_TRUE(ra.ok() && rb.ok());
        EXPECT_EQ(programArtifactString(ra.program),
                  programArtifactString(rb.program));
    }
}

TEST(CalibrationCompatTest, FingerprintSensitiveToEveryCalibField)
{
    // Finite uniform coherence, so single-field mutations below stay
    // physical (T2 <= 2 T1).
    const dev::Device base =
        snapshotDevice().withCoherence(us(100.0), us(100.0));
    const Fingerprint fp = fingerprintDevice(base);

    auto mutated = [&](auto &&mutate) {
        dev::Calibration calib = base.calibration();
        mutate(calib);
        return fingerprintDevice(base.withCalibration(calib));
    };

    // One qubit's T1 / T2 / anharmonicity.
    EXPECT_NE(fp, mutated([](dev::Calibration &c) {
                  c.t1[2] = us(150.0);
              }));
    EXPECT_NE(fp, mutated([](dev::Calibration &c) {
                  c.t2[0] = us(90.0);
              }));
    EXPECT_NE(fp, mutated([](dev::Calibration &c) {
                  c.anharmonicity[5] *= 1.0 + 1e-12;
              }));
    // One edge's ZZ, by the smallest representable nudge.
    EXPECT_NE(fp, mutated([](dev::Calibration &c) {
                  c.zz[1] = std::nextafter(c.zz[1], 1.0);
              }));
    // The epoch alone distinguishes recalibrations even when every
    // physical number is identical.
    EXPECT_NE(fp, mutated([](dev::Calibration &c) { ++c.epoch; }));
    // The sampling moments are part of the snapshot.
    EXPECT_NE(fp, mutated([](dev::Calibration &c) {
                  c.coupling_stddev *= 2.0;
              }));
    // The id is a provenance label, NOT physics: relabelling must not
    // invalidate cached programs.
    EXPECT_EQ(fp, mutated([](dev::Calibration &c) {
                  c.id = "relabelled";
              }));
}

TEST(CalibrationCompatTest, DeviceFingerprintGolden)
{
    // Golden-pinned: fingerprints name persisted artifacts, so the
    // calibration hash must stay stable across refactors — if this
    // changes, bump kFingerprintVersion instead of silently
    // invalidating every stored artifact.
    dev::DeviceParams params;
    params.t1 = us(100.0);
    params.t2 = us(120.0);
    const std::vector<double> couplings(7, khz(200.0));
    const dev::Device device(
        graph::gridTopology(2, 3),
        dev::Calibration::uniform(graph::gridTopology(2, 3), params,
                                  couplings));
    EXPECT_EQ(fingerprintDevice(device).hex(),
              "ec1f700c68a62044ed0255ca15af4a50");
}

TEST(CalibrationCompatTest, EpochsCacheSeparately)
{
    CompileServiceConfig config;
    config.num_workers = 2;
    CompileService service(config);

    const auto base =
        std::make_shared<const dev::Device>(snapshotDevice());
    Rng drift_rng(99);
    const auto drifted = std::make_shared<const dev::Device>(
        base->withCalibration(
            base->calibration().drifted({}, drift_rng)));
    ASSERT_EQ(drifted->calibration().epoch, 1u);

    const ckt::QuantumCircuit circuit = benchmark();
    auto request = [&](std::shared_ptr<const dev::Device> device) {
        CompileRequest req;
        req.circuit = circuit;
        req.device = std::move(device);
        return req;
    };

    ServiceResult cold_base = service.submit(request(base)).get();
    ServiceResult cold_drift = service.submit(request(drifted)).get();
    ASSERT_TRUE(cold_base.ok() && cold_drift.ok());
    EXPECT_NE(cold_base.fingerprint, cold_drift.fingerprint);
    EXPECT_EQ(cold_base.outcome, Outcome::Compiled);
    EXPECT_EQ(cold_drift.outcome, Outcome::Compiled);
    EXPECT_EQ(cold_base.program->calib_epoch, 0u);
    EXPECT_EQ(cold_drift.program->calib_epoch, 1u);

    // Warm per epoch: each snapshot hits its own cache entry.
    ServiceResult warm_base = service.submit(request(base)).get();
    ServiceResult warm_drift = service.submit(request(drifted)).get();
    EXPECT_EQ(warm_base.outcome, Outcome::CacheHit);
    EXPECT_EQ(warm_drift.outcome, Outcome::CacheHit);
    EXPECT_EQ(programArtifactString(*warm_base.program),
              programArtifactString(*cold_base.program));
    EXPECT_EQ(programArtifactString(*warm_drift.program),
              programArtifactString(*cold_drift.program));
    // The artifacts embed the epoch, so the two cache generations are
    // distinguishable on disk as well.
    EXPECT_NE(programArtifactString(*warm_base.program),
              programArtifactString(*warm_drift.program));

    const MetricsSnapshot metrics = service.metrics();
    EXPECT_EQ(metrics.cache_hits, 2u);
    EXPECT_EQ(metrics.cache_misses, 2u);
}

TEST(CalibrationCompatTest, EpochRoundTripsThroughArtifact)
{
    const dev::Device device = snapshotDevice();
    Rng drift_rng(5);
    const dev::Device recal = device.withCalibration(
        device.calibration().drifted({}, drift_rng));
    const core::Compiler compiler =
        core::CompilerBuilder(recal)
            .pulseMethod(core::PulseMethod::Gaussian)
            .build();
    const core::CompileResult result = compiler.compile(benchmark(4));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.program.calib_epoch, 1u);

    std::istringstream in(programArtifactString(result.program));
    const auto back = readProgramArtifact(in);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->calib_epoch, 1u);
    EXPECT_EQ(programArtifactString(*back),
              programArtifactString(result.program));
}

} // namespace
} // namespace qzz::svc
