/**
 * @file
 * Per-qubit calibration snapshots.
 *
 * Real devices are heterogeneous and drift between calibration runs:
 * every qubit has its own T1/T2/anharmonicity and every coupler its
 * own always-on ZZ rate, and the numbers change each time the backend
 * recalibrates.  A Calibration captures one such snapshot — per-qubit
 * coherence/anharmonicity vectors, per-edge ZZ couplings, and a
 * monotonically increasing epoch plus a snapshot id — so the rest of
 * the system (device model, pulse generation, simulators, scheduler
 * tables, service fingerprints) keys on calibrated data instead of
 * one uniform parameter tuple.
 *
 * Snapshots round-trip losslessly through a one-line JSON document
 * (every double written with max_digits10 precision; infinities
 * encoded as the strings "inf"/"-inf"), and persist with the same
 * write-private-temp + rename convention as the pulse calibration
 * store, so concurrent writers can never leave a torn file behind.
 * The document grammar, the infinity encoding, and the epoch/id
 * semantics are specified in docs/formats.md ("Calibration
 * snapshots").
 */

#ifndef QZZ_DEVICE_CALIBRATION_H
#define QZZ_DEVICE_CALIBRATION_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/topologies.h"

namespace qzz::dev {

struct DeviceParams;

/** Calibration document format version (stored in the JSON). */
inline constexpr int kCalibrationVersion = 1;

/** Relative 1-sigma spreads used by Calibration::jittered().  A
 *  field set to 0 leaves that quantity at its nominal value, so e.g.
 *  {0, 0, 0, zz_rel} isolates per-edge ZZ heterogeneity (the sweep
 *  axis of bench/fig_weighted_sched.cc). */
struct CalibrationJitter
{
    /** Fractional spread of per-qubit T1 (and T2). */
    double t1_rel = 0.10;
    double t2_rel = 0.10;
    /** Fractional spread of per-qubit anharmonicity. */
    double anharmonicity_rel = 0.02;
    /** Fractional spread of per-edge ZZ *on top of* the sampled
     *  value (couplings are first drawn from N(coupling_mean,
     *  coupling_stddev) like sampled(); set coupling_stddev = 0 to
     *  make zz_rel the only source of ZZ spread). */
    double zz_rel = 0.0;
};

/** Relative per-recalibration drift applied by Calibration::drifted(). */
struct CalibrationDrift
{
    double t1_rel = 0.05;
    double t2_rel = 0.05;
    double anharmonicity_rel = 0.005;
    double zz_rel = 0.05;
};

/**
 * One calibration snapshot of a device.
 *
 * Per-qubit vectors are indexed by qubit id; `zz` is indexed by the
 * topology's edge id, with `edge_u`/`edge_v` recording the endpoints
 * so a snapshot loaded from disk can be validated against the
 * topology it is applied to.  `epoch` increases monotonically across
 * recalibrations of one device (drifted() bumps it); `id` is a free-
 * form provenance label and is deliberately NOT part of the service
 * fingerprint — two snapshots with identical numbers and epoch are
 * the same calibration regardless of how they were labelled.
 */
struct Calibration
{
    /** Provenance label, e.g. "sampled" or "drift-3". */
    std::string id;
    /** Monotonically increasing recalibration counter. */
    uint64_t epoch = 0;
    int num_qubits = 0;

    /** Per-qubit relaxation times T1 (ns); infinity = none. */
    std::vector<double> t1;
    /** Per-qubit dephasing times T2 (ns); infinity = none. */
    std::vector<double> t2;
    /** Per-qubit transmon anharmonicity (rad/ns). */
    std::vector<double> anharmonicity;

    /** Edge endpoints, aligned with `zz` (topology edge order). */
    std::vector<int> edge_u;
    std::vector<int> edge_v;
    /** Per-edge always-on ZZ strength lambda (rad/ns). */
    std::vector<double> zz;

    /** Nominal sampling moments the snapshot was generated from
     *  (provenance; also the uniform view Device::params() reports). */
    double coupling_mean = 0.0;
    double coupling_stddev = 0.0;

    bool operator==(const Calibration &) const = default;

    int numEdges() const { return int(zz.size()); }

    /** Internal consistency: vector sizes, positive finite-or-inf
     *  coherence times, T2 <= 2 T1 physicality.  Throws UserError. */
    void validate() const;

    /** validate() plus edge/vertex agreement with @p topo. */
    void validateFor(const graph::Topology &topo) const;

    /**
     * Uniform snapshot: every qubit carries params' T1/T2/
     * anharmonicity and the given explicit per-edge couplings.
     */
    static Calibration uniform(const graph::Topology &topo,
                               const DeviceParams &params,
                               std::vector<double> couplings);

    /**
     * Uniform per-qubit values with couplings sampled from
     * N(params.coupling_mean, params.coupling_stddev), truncated to
     * stay positive — drawing from @p rng exactly like the historical
     * Device constructor, so a Device built from this snapshot is
     * bit-identical to one built from (params, rng) directly.
     */
    static Calibration sampled(const graph::Topology &topo,
                               const DeviceParams &params, Rng &rng);

    /**
     * Heterogeneous snapshot: couplings sampled as in sampled(), then
     * every per-qubit/per-edge value Gaussian-jittered by the given
     * relative spreads (truncated so T1/T2 stay positive and the
     * T2 <= 2 T1 physicality bound holds; infinite times stay
     * infinite).
     */
    static Calibration jittered(const graph::Topology &topo,
                                const DeviceParams &params,
                                const CalibrationJitter &jitter,
                                Rng &rng);

    /**
     * A recalibration: every field of this snapshot perturbed by the
     * drift model's relative spreads, with `epoch` incremented and
     * the id suffixed, modelling parameter drift between calibration
     * runs of one physical device.
     */
    Calibration drifted(const CalibrationDrift &drift, Rng &rng) const;

    /** Copy with every qubit's T1/T2 replaced (the uniform coherence
     *  shim used by decoherence sweeps).  Throws UserError on
     *  non-positive times or T2 > 2 T1. */
    Calibration withUniformCoherence(double t1, double t2) const;
};

/** Serialize @p calib as one line of JSON (lossless round-trip). */
void writeCalibrationJson(const Calibration &calib, std::ostream &os);

/** writeCalibrationJson() into a string. */
std::string calibrationJsonString(const Calibration &calib);

/** Parse a calibration document.  Returns nullopt (with a message in
 *  @p error when non-null) on malformed or version-mismatched input;
 *  the returned snapshot has been validate()d. */
std::optional<Calibration>
readCalibrationJson(std::string_view text, std::string *error = nullptr);

/** Atomically persist @p calib to @p path (temp file + rename).
 *  Returns false when the file could not be written. */
bool saveCalibrationFile(const Calibration &calib,
                         const std::string &path);

/** Load a snapshot previously saved with saveCalibrationFile(). */
std::optional<Calibration>
loadCalibrationFile(const std::string &path, std::string *error = nullptr);

} // namespace qzz::dev

#endif // QZZ_DEVICE_CALIBRATION_H
