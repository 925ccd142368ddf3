/**
 * @file
 * Calibration snapshot unit tests: factory generators, validation,
 * the lossless JSON round trip, atomic file persistence, and the
 * uniform-shim equivalence with the historical Device constructors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>

#include "common/error.h"
#include "common/units.h"
#include "device/calibration.h"
#include "device/device.h"
#include "graph/topologies.h"

namespace qzz::dev {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

graph::Topology
grid23()
{
    return graph::gridTopology(2, 3);
}

TEST(CalibrationTest, SampledMatchesHistoricalDeviceSampling)
{
    // The sampled() factory must consume the rng exactly like the
    // historical Device(topo, params, rng) constructor, so devices
    // built either way are bit-identical.
    Rng rng_a(7), rng_b(7);
    const Device direct(grid23(), DeviceParams{}, rng_a);
    const Calibration calib =
        Calibration::sampled(grid23(), DeviceParams{}, rng_b);
    ASSERT_EQ(calib.zz.size(), direct.couplings().size());
    for (size_t e = 0; e < calib.zz.size(); ++e)
        EXPECT_EQ(calib.zz[e], direct.couplings()[e]);
    EXPECT_EQ(calib.epoch, 0u);
    EXPECT_EQ(calib.num_qubits, 6);
}

TEST(CalibrationTest, UniformSnapshotDeviceEqualsShimDevice)
{
    Rng rng(11);
    const Device shim(grid23(), DeviceParams{}, rng);
    const Device snap(grid23(),
                      Calibration::uniform(grid23(), DeviceParams{},
                                           shim.couplings()));
    EXPECT_EQ(snap.couplings(), shim.couplings());
    for (int q = 0; q < snap.numQubits(); ++q) {
        EXPECT_EQ(snap.t1(q), shim.t1(q));
        EXPECT_EQ(snap.t2(q), shim.t2(q));
        EXPECT_EQ(snap.anharmonicity(q), shim.anharmonicity(q));
    }
    EXPECT_EQ(snap.calibration().epoch, shim.calibration().epoch);
}

TEST(CalibrationTest, JitteredIsHeterogeneousAndPhysical)
{
    DeviceParams params;
    params.t1 = us(100.0);
    params.t2 = us(80.0);
    Rng rng(3);
    CalibrationJitter jitter;
    jitter.zz_rel = 0.1;
    const Calibration calib =
        Calibration::jittered(grid23(), params, jitter, rng);
    calib.validateFor(grid23());

    bool t1_varies = false;
    for (size_t q = 1; q < calib.t1.size(); ++q)
        t1_varies = t1_varies || calib.t1[q] != calib.t1[0];
    EXPECT_TRUE(t1_varies);
    for (size_t q = 0; q < calib.t1.size(); ++q) {
        EXPECT_GT(calib.t1[q], 0.0);
        EXPECT_LE(calib.t2[q], 2.0 * calib.t1[q] * (1.0 + 1e-12));
        EXPECT_LT(calib.anharmonicity[q], 0.0); // sign preserved
    }
}

TEST(CalibrationTest, JitterKeepsInfiniteCoherenceInfinite)
{
    Rng rng(5);
    const Calibration calib = Calibration::jittered(
        grid23(), DeviceParams{}, CalibrationJitter{}, rng);
    for (double t : calib.t1)
        EXPECT_TRUE(std::isinf(t));
    for (double t : calib.t2)
        EXPECT_TRUE(std::isinf(t));
}

TEST(CalibrationTest, DriftBumpsEpochAndPerturbsFields)
{
    DeviceParams params;
    params.t1 = us(120.0);
    params.t2 = us(90.0);
    Rng rng(9);
    const Calibration base =
        Calibration::sampled(grid23(), params, rng);
    Rng drift_rng(10);
    const Calibration next = base.drifted({}, drift_rng);
    EXPECT_EQ(next.epoch, base.epoch + 1);
    EXPECT_NE(next.id, base.id);
    EXPECT_NE(next.zz, base.zz);
    EXPECT_NE(next.t1, base.t1);
    next.validateFor(grid23());

    Rng drift_rng2(11);
    const Calibration third = next.drifted({}, drift_rng2);
    EXPECT_EQ(third.epoch, 2u);
}

TEST(CalibrationTest, JsonRoundTripIsLossless)
{
    // Awkward doubles (non-terminating binary fractions, tiny and
    // huge magnitudes, infinities) must survive the text round trip
    // bit-exactly: the writer uses max_digits10 and encodes
    // infinities as strings.
    DeviceParams params;
    params.t1 = us(123.456789);
    params.t2 = us(98.7654321);
    Rng rng(17);
    Calibration calib = Calibration::jittered(
        grid23(), params, CalibrationJitter{0.1, 0.1, 0.05, 0.2}, rng);
    calib.epoch = 41;
    calib.id = "round \\ \"trip\"";
    calib.t1[0] = 1.0 / 3.0;
    calib.t2[0] = 2.0 / 3.0;
    calib.t1[1] = kInf;
    calib.t2[1] = kInf;
    calib.zz[0] = 1e-300;
    calib.anharmonicity[2] = -1.234567890123456789e2;

    const std::string text = calibrationJsonString(calib);
    std::string error;
    const auto back = readCalibrationJson(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(*back, calib);
    // Serialization is deterministic, so the round trip is a fixed
    // point at the byte level too.
    EXPECT_EQ(calibrationJsonString(*back), text);
}

TEST(CalibrationTest, DampingOnlyCoherenceIsAccepted)
{
    // Historical behavior: finite T1 with the default infinite T2
    // (pure relaxation, no dephasing channel) must construct — the
    // T2 <= 2 T1 physicality bound only applies to finite T2.
    DeviceParams params;
    params.t1 = us(100.0);
    Rng rng(13);
    const Device device(grid23(), params, rng);
    EXPECT_EQ(device.t1(0), us(100.0));
    EXPECT_TRUE(std::isinf(device.t2(0)));
    EXPECT_NO_THROW(
        Calibration::jittered(grid23(), params, {}, rng));
}

TEST(CalibrationTest, ControlCharacterIdRoundTrips)
{
    Rng rng(19);
    Calibration calib =
        Calibration::sampled(grid23(), DeviceParams{}, rng);
    calib.id = "run\n2026\t\x01end";
    const std::string text = calibrationJsonString(calib);
    // One-line-JSON invariant: exactly the trailing newline.
    EXPECT_EQ(text.find('\n'), text.size() - 1);
    std::string error;
    const auto back = readCalibrationJson(text, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, calib.id);
}

TEST(CalibrationTest, JsonRejectsMalformedInput)
{
    Rng rng(1);
    const Calibration calib =
        Calibration::sampled(grid23(), DeviceParams{}, rng);
    const std::string text = calibrationJsonString(calib);

    std::string error;
    EXPECT_FALSE(readCalibrationJson("", &error).has_value());
    EXPECT_FALSE(readCalibrationJson("{}", &error).has_value());
    EXPECT_FALSE(
        readCalibrationJson(text.substr(0, text.size() / 2), &error)
            .has_value());
    EXPECT_FALSE(
        readCalibrationJson(text + " trailing", &error).has_value());
    EXPECT_FALSE(readCalibrationJson("{\"qzzcalib\":999}", &error)
                     .has_value());
    // Inconsistent sizes fail validation on load.
    std::string broken = text;
    const auto pos = broken.find("\"t1\":[");
    ASSERT_NE(pos, std::string::npos);
    broken.insert(pos + 6, "1.0,");
    EXPECT_FALSE(readCalibrationJson(broken, &error).has_value());
}

TEST(CalibrationTest, JsonRejectsEveryTruncation)
{
    // A torn write (e.g. a non-atomic copy into a watch directory)
    // must never parse as a partial snapshot: every proper prefix of
    // a valid document fails, and the error carries a byte offset so
    // the truncation point is diagnosable.
    Rng rng(3);
    const Calibration calib =
        Calibration::sampled(grid23(), DeviceParams{}, rng);
    std::string text = calibrationJsonString(calib);
    while (!text.empty() && text.back() == '\n')
        text.pop_back();

    for (size_t len = 0; len < text.size(); ++len) {
        std::string error;
        const auto got =
            readCalibrationJson(text.substr(0, len), &error);
        ASSERT_FALSE(got.has_value())
            << "prefix of length " << len << " parsed";
        EXPECT_NE(error.find("at byte"), std::string::npos)
            << "no byte offset in error for prefix " << len << ": "
            << error;
    }
}

TEST(CalibrationTest, JsonRejectsDuplicateAndMissingKeys)
{
    Rng rng(5);
    const Calibration calib =
        Calibration::sampled(grid23(), DeviceParams{}, rng);
    std::string text = calibrationJsonString(calib);
    while (!text.empty() && text.back() == '\n')
        text.pop_back();

    // Splice a second "epoch" before the closing brace: the last
    // value must NOT silently win.
    std::string dup = text;
    dup.insert(dup.size() - 1, ",\"epoch\":99");
    std::string error;
    EXPECT_FALSE(readCalibrationJson(dup, &error).has_value());
    EXPECT_NE(error.find("duplicate key 'epoch'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;

    // Drop the "zz" key entirely (well-formed JSON, incomplete
    // document) — a structurally valid but partial snapshot.
    const auto pos = text.find(",\"zz\":");
    ASSERT_NE(pos, std::string::npos);
    const std::string missing =
        text.substr(0, pos) + "}";
    EXPECT_FALSE(readCalibrationJson(missing, &error).has_value());
    EXPECT_NE(error.find("missing key 'zz'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
}

TEST(CalibrationTest, FileLoadRejectsTruncatedFile)
{
    Rng rng(29);
    const Calibration calib =
        Calibration::sampled(grid23(), DeviceParams{}, rng);
    const std::string text = calibrationJsonString(calib);

    const auto dir = std::filesystem::temp_directory_path() /
                     ("qzz_calib_trunc_" +
                      std::to_string(std::random_device{}()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "torn.qzzcalib").string();
    {
        std::ofstream out(path);
        out << text.substr(0, text.size() / 3);
    }
    std::string error;
    EXPECT_FALSE(loadCalibrationFile(path, &error).has_value());
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
    std::filesystem::remove_all(dir);
}

TEST(CalibrationTest, FileSaveLoadRoundTrip)
{
    Rng rng(23);
    Calibration calib = Calibration::jittered(
        grid23(), DeviceParams{}, CalibrationJitter{}, rng);
    calib.epoch = 7;

    const auto dir = std::filesystem::temp_directory_path() /
                     ("qzz_calib_test_" +
                      std::to_string(std::random_device{}()));
    const std::string path = (dir / "snapshot.json").string();
    ASSERT_TRUE(saveCalibrationFile(calib, path));
    std::string error;
    const auto back = loadCalibrationFile(path, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(*back, calib);
    EXPECT_FALSE(
        loadCalibrationFile((dir / "missing.json").string(), &error)
            .has_value());
    std::filesystem::remove_all(dir);
}

TEST(CalibrationTest, ValidationCatchesMismatches)
{
    Rng rng(2);
    Calibration calib =
        Calibration::sampled(grid23(), DeviceParams{}, rng);
    EXPECT_NO_THROW(calib.validateFor(grid23()));
    EXPECT_THROW(calib.validateFor(graph::ringTopology(6)), UserError);

    Calibration truncated = calib;
    truncated.t1.pop_back();
    EXPECT_THROW(truncated.validate(), UserError);

    Calibration unphysical = calib;
    unphysical.t1.assign(size_t(calib.num_qubits), us(10.0));
    unphysical.t2.assign(size_t(calib.num_qubits), us(50.0));
    EXPECT_THROW(unphysical.validate(), UserError);

    EXPECT_THROW(calib.withUniformCoherence(-1.0, 1.0), UserError);
    const Calibration coherent =
        calib.withUniformCoherence(us(100.0), us(150.0));
    EXPECT_EQ(coherent.t1[0], us(100.0));
    EXPECT_EQ(coherent.epoch, calib.epoch);
}

TEST(CalibrationTest, WithCoherenceReturnsNewDeviceValue)
{
    Rng rng(4);
    const Device base(grid23(), DeviceParams{}, rng);
    const Device lossy = base.withCoherence(us(50.0), us(50.0));
    // The original device is untouched (no shared-state mutation).
    EXPECT_TRUE(std::isinf(base.t1(0)));
    EXPECT_EQ(lossy.t1(3), us(50.0));
    EXPECT_EQ(lossy.couplings(), base.couplings());
}

} // namespace
} // namespace qzz::dev
