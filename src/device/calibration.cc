#include "device/calibration.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <random>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "device/device.h"

namespace qzz::dev {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Positive Gaussian jitter: v * (1 + rel * N(0,1)), truncated into
 *  [0.05 v, 4 v] like the coupling sampler; infinities pass through. */
double
jitterPositive(double v, double rel, Rng &rng)
{
    if (rel <= 0.0 || !std::isfinite(v) || v == 0.0)
        return v;
    // Jitter the magnitude and restore the sign, so negative values
    // (anharmonicity) jitter the same way positive ones do and the
    // truncation bounds always bracket the mean.
    const double mag = std::abs(v);
    const double out = rng.truncatedNormal(mag, rel * mag, 0.05 * mag,
                                           4.0 * mag);
    return std::copysign(out, v);
}

/** Re-impose 1/T_phi = 1/T2 - 1/(2 T1) >= 0 after jittering. */
void
clampPhysicality(std::vector<double> &t1, std::vector<double> &t2)
{
    for (size_t q = 0; q < t1.size(); ++q)
        if (std::isfinite(t2[q]))
            t2[q] = std::min(t2[q], 2.0 * t1[q]);
}

void
requireSize(const std::vector<double> &v, size_t n, const char *what)
{
    if (v.size() != n)
        fatal(std::string("Calibration: ") + what + " size mismatch");
}

} // namespace

void
Calibration::validate() const
{
    require(num_qubits >= 1, "Calibration: needs at least one qubit");
    const size_t nq = size_t(num_qubits);
    requireSize(t1, nq, "t1");
    requireSize(t2, nq, "t2");
    requireSize(anharmonicity, nq, "anharmonicity");
    require(edge_u.size() == zz.size() && edge_v.size() == zz.size(),
            "Calibration: edge/zz size mismatch");
    require(std::isfinite(coupling_mean) &&
                std::isfinite(coupling_stddev),
            "Calibration: sampling moments must be finite");
    for (size_t q = 0; q < nq; ++q) {
        require(t1[q] > 0.0, "Calibration: T1 must be positive");
        require(t2[q] > 0.0, "Calibration: T2 must be positive");
        // Physicality: 1/T_phi = 1/T2 - 1/(2 T1) must be
        // non-negative.  Infinite T2 means "no dephasing channel"
        // (the historical damping-only regime with finite T1) and is
        // exempt — the simulator clamps its dephasing rate at 0.
        if (std::isfinite(t2[q]))
            require(1.0 / t2[q] - 0.5 / t1[q] > -1e-15,
                    "Calibration: requires T2 <= 2 T1");
        // NaN would serialize as an unreadable token, silently
        // breaking the lossless round trip; infinity is only
        // meaningful for coherence times.
        require(std::isfinite(anharmonicity[q]),
                "Calibration: anharmonicity must be finite");
    }
    for (size_t e = 0; e < zz.size(); ++e) {
        require(edge_u[e] >= 0 && edge_u[e] < num_qubits &&
                    edge_v[e] >= 0 && edge_v[e] < num_qubits,
                "Calibration: edge endpoint out of range");
        require(std::isfinite(zz[e]),
                "Calibration: ZZ strength must be finite");
    }
}

void
Calibration::validateFor(const graph::Topology &topo) const
{
    validate();
    require(num_qubits == topo.g.numVertices(),
            "Calibration: qubit count does not match topology");
    require(numEdges() == topo.g.numEdges(),
            "Calibration: edge count does not match topology");
    for (const graph::Edge &e : topo.g.edges()) {
        require(edge_u[size_t(e.id)] == e.u &&
                    edge_v[size_t(e.id)] == e.v,
                "Calibration: edge list does not match topology");
    }
}

namespace {

Calibration
uniformSkeleton(const graph::Topology &topo, const DeviceParams &params)
{
    Calibration c;
    c.num_qubits = topo.g.numVertices();
    const size_t nq = size_t(c.num_qubits);
    c.t1.assign(nq, params.t1);
    c.t2.assign(nq, params.t2);
    c.anharmonicity.assign(nq, params.anharmonicity);
    c.coupling_mean = params.coupling_mean;
    c.coupling_stddev = params.coupling_stddev;
    for (const graph::Edge &e : topo.g.edges()) {
        c.edge_u.push_back(e.u);
        c.edge_v.push_back(e.v);
    }
    return c;
}

/** The historical Device-constructor coupling sampler, verbatim. */
std::vector<double>
sampleCouplings(const graph::Topology &topo, const DeviceParams &params,
                Rng &rng)
{
    std::vector<double> couplings;
    couplings.reserve(size_t(topo.g.numEdges()));
    for (int e = 0; e < topo.g.numEdges(); ++e) {
        couplings.push_back(rng.truncatedNormal(
            params.coupling_mean, params.coupling_stddev,
            params.coupling_mean * 0.05, params.coupling_mean * 4.0));
    }
    return couplings;
}

} // namespace

Calibration
Calibration::uniform(const graph::Topology &topo,
                     const DeviceParams &params,
                     std::vector<double> couplings)
{
    Calibration c = uniformSkeleton(topo, params);
    c.id = "uniform";
    c.zz = std::move(couplings);
    c.validateFor(topo);
    return c;
}

Calibration
Calibration::sampled(const graph::Topology &topo,
                     const DeviceParams &params, Rng &rng)
{
    Calibration c = uniformSkeleton(topo, params);
    c.id = "sampled";
    c.zz = sampleCouplings(topo, params, rng);
    c.validateFor(topo);
    return c;
}

Calibration
Calibration::jittered(const graph::Topology &topo,
                      const DeviceParams &params,
                      const CalibrationJitter &jitter, Rng &rng)
{
    Calibration c = uniformSkeleton(topo, params);
    c.id = "jittered";
    c.zz = sampleCouplings(topo, params, rng);
    for (double &v : c.t1)
        v = jitterPositive(v, jitter.t1_rel, rng);
    for (double &v : c.t2)
        v = jitterPositive(v, jitter.t2_rel, rng);
    clampPhysicality(c.t1, c.t2);
    for (double &v : c.anharmonicity)
        v = jitterPositive(v, jitter.anharmonicity_rel, rng);
    for (double &v : c.zz)
        v = jitterPositive(v, jitter.zz_rel, rng);
    c.validateFor(topo);
    return c;
}

Calibration
Calibration::drifted(const CalibrationDrift &drift, Rng &rng) const
{
    Calibration c = *this;
    c.epoch = epoch + 1;
    c.id = id + "+drift";
    for (double &v : c.t1)
        v = jitterPositive(v, drift.t1_rel, rng);
    for (double &v : c.t2)
        v = jitterPositive(v, drift.t2_rel, rng);
    clampPhysicality(c.t1, c.t2);
    for (double &v : c.anharmonicity)
        v = jitterPositive(v, drift.anharmonicity_rel, rng);
    for (double &v : c.zz)
        v = jitterPositive(v, drift.zz_rel, rng);
    c.validate();
    return c;
}

Calibration
Calibration::withUniformCoherence(double new_t1, double new_t2) const
{
    require(new_t1 > 0.0 && new_t2 > 0.0,
            "Calibration::withUniformCoherence: bad times");
    require(1.0 / new_t2 - 0.5 / new_t1 > -1e-15,
            "Calibration::withUniformCoherence: requires T2 <= 2 T1");
    Calibration c = *this;
    c.t1.assign(size_t(num_qubits), new_t1);
    c.t2.assign(size_t(num_qubits), new_t2);
    return c;
}

// ---------------------------------------------------------------------------
// JSON round trip
// ---------------------------------------------------------------------------

namespace {

/** max_digits10 for exact binary64 round-trips; infinities (not
 *  representable in JSON numbers) become the strings "inf"/"-inf". */
void
writeDouble(std::ostream &os, double v)
{
    if (std::isinf(v)) {
        os << (v > 0.0 ? "\"inf\"" : "\"-inf\"");
        return;
    }
    os << v;
}

void
writeDoubleArray(std::ostream &os, const std::vector<double> &v)
{
    os << "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            os << ",";
        writeDouble(os, v[i]);
    }
    os << "]";
}

void
writeIntArray(std::ostream &os, const std::vector<int> &v)
{
    os << "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            os << ",";
        os << v[i];
    }
    os << "]";
}

std::string
escapeId(const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
            // Control characters would break the one-line-JSON
            // invariant (and the strict parser); \u-escape them so
            // any free-form id round-trips.
            out += "\\u00";
            out.push_back(hex[u >> 4]);
            out.push_back(hex[u & 0xf]);
            continue;
        }
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/**
 * Minimal parser for the calibration document: one flat JSON object
 * whose values are numbers, strings, or arrays of numbers/strings.
 * Strict about what it handles, with byte offsets in error messages.
 */
class CalibParser
{
  public:
    explicit CalibParser(std::string_view text) : text_(text) {}

    bool
    fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why + " at byte " + std::to_string(pos_);
        return false;
    }

    const std::string &error() const { return error_; }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    peek(char c)
    {
        skipWs();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    bool
    atEnd()
    {
        skipWs();
        return pos_ >= text_.size();
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("dangling escape");
                const char esc = text_[pos_++];
                if (esc == 'u') {
                    // Only the \u00XX byte escapes the writer emits.
                    unsigned value = 0;
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        value <<= 4;
                        if (h >= '0' && h <= '9')
                            value |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            value |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            value |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    if (value > 0xff)
                        return fail("unsupported \\u escape");
                    out.push_back(char(value));
                } else if (esc == '"' || esc == '\\') {
                    out.push_back(esc);
                } else {
                    return fail("unsupported escape");
                }
            } else {
                out.push_back(c);
            }
        }
        return fail("unterminated string");
    }

    /** A JSON number, or the quoted strings "inf" / "-inf". */
    bool
    parseDouble(double &out)
    {
        skipWs();
        if (peek('"')) {
            std::string s;
            if (!parseString(s))
                return false;
            if (s == "inf") {
                out = kInf;
                return true;
            }
            if (s == "-inf") {
                out = -kInf;
                return true;
            }
            return fail("expected \"inf\" or \"-inf\"");
        }
        // Copy the number token before strtod: the view need not be
        // NUL-terminated, and strtod must never scan past its end.
        size_t len = 0;
        while (pos_ + len < text_.size()) {
            const char c = text_[pos_ + len];
            if ((c >= '0' && c <= '9') || c == '-' || c == '+' ||
                c == '.' || c == 'e' || c == 'E')
                ++len;
            else
                break;
        }
        const std::string token(text_.substr(pos_, len));
        char *end = nullptr;
        out = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || len == 0)
            return fail("expected a number");
        if (!std::isfinite(out))
            return fail("number out of range");
        pos_ += len;
        return true;
    }

    bool
    parseInt(int64_t &out)
    {
        double v = 0.0;
        if (!parseDouble(v))
            return false;
        out = int64_t(v);
        if (double(out) != v)
            return fail("expected an integer");
        return true;
    }

    bool
    parseDoubleArray(std::vector<double> &out)
    {
        if (!consume('['))
            return false;
        out.clear();
        if (peek(']'))
            return consume(']');
        for (;;) {
            double v = 0.0;
            if (!parseDouble(v))
                return false;
            out.push_back(v);
            if (peek(']'))
                return consume(']');
            if (!consume(','))
                return false;
        }
    }

    bool
    parseIntArray(std::vector<int> &out)
    {
        if (!consume('['))
            return false;
        out.clear();
        if (peek(']'))
            return consume(']');
        for (;;) {
            int64_t v = 0;
            if (!parseInt(v))
                return false;
            if (v < 0 || v > std::numeric_limits<int>::max())
                return fail("integer out of range");
            out.push_back(int(v));
            if (peek(']'))
                return consume(']');
            if (!consume(','))
                return false;
        }
    }

  private:
    std::string_view text_;
    size_t pos_ = 0;
    std::string error_;
};

} // namespace

void
writeCalibrationJson(const Calibration &calib, std::ostream &os)
{
    os.precision(17); // max_digits10: exact binary64 round-trip
    os << "{\"qzzcalib\":" << kCalibrationVersion;
    os << ",\"id\":\"" << escapeId(calib.id) << "\"";
    os << ",\"epoch\":" << calib.epoch;
    os << ",\"num_qubits\":" << calib.num_qubits;
    os << ",\"coupling_mean\":";
    writeDouble(os, calib.coupling_mean);
    os << ",\"coupling_stddev\":";
    writeDouble(os, calib.coupling_stddev);
    os << ",\"t1\":";
    writeDoubleArray(os, calib.t1);
    os << ",\"t2\":";
    writeDoubleArray(os, calib.t2);
    os << ",\"anharmonicity\":";
    writeDoubleArray(os, calib.anharmonicity);
    os << ",\"edge_u\":";
    writeIntArray(os, calib.edge_u);
    os << ",\"edge_v\":";
    writeIntArray(os, calib.edge_v);
    os << ",\"zz\":";
    writeDoubleArray(os, calib.zz);
    os << "}\n";
}

std::string
calibrationJsonString(const Calibration &calib)
{
    std::ostringstream os;
    writeCalibrationJson(calib, os);
    return os.str();
}

namespace {

/** Every key of the calibration document, in writer order.  Each is
 *  mandatory and must appear exactly once: a truncated file (missing
 *  trailing keys) or a spliced one (duplicate keys) fails the parse
 *  with a byte offset instead of yielding a partial snapshot. */
constexpr const char *kCalibKeys[] = {
    "qzzcalib", "id",     "epoch",         "num_qubits",
    "coupling_mean",      "coupling_stddev",
    "t1",       "t2",     "anharmonicity", "edge_u",
    "edge_v",   "zz",
};
constexpr size_t kNumCalibKeys =
    sizeof(kCalibKeys) / sizeof(kCalibKeys[0]);

} // namespace

std::optional<Calibration>
readCalibrationJson(std::string_view text, std::string *error)
{
    CalibParser p(text);
    Calibration c;
    bool seen[kNumCalibKeys] = {};
    auto fail = [&](const std::string &why) -> std::optional<Calibration> {
        if (error)
            *error = why.empty() ? p.error() : why;
        return std::nullopt;
    };

    if (!p.consume('{'))
        return fail("");
    if (!p.peek('}')) {
        for (;;) {
            std::string key;
            if (!p.parseString(key) || !p.consume(':'))
                return fail("");
            size_t idx = kNumCalibKeys;
            for (size_t i = 0; i < kNumCalibKeys; ++i) {
                if (key == kCalibKeys[i]) {
                    idx = i;
                    break;
                }
            }
            if (idx == kNumCalibKeys)
                return fail("unknown key '" + key + "'");
            if (seen[idx]) {
                p.fail("duplicate key '" + key + "'");
                return fail("");
            }
            seen[idx] = true;
            bool ok = true;
            if (key == "qzzcalib") {
                int64_t version = 0;
                ok = p.parseInt(version);
                if (ok && version != kCalibrationVersion)
                    return fail("unsupported calibration version " +
                                std::to_string(version));
            } else if (key == "id") {
                ok = p.parseString(c.id);
            } else if (key == "epoch") {
                int64_t epoch = 0;
                ok = p.parseInt(epoch) && epoch >= 0;
                c.epoch = uint64_t(epoch);
            } else if (key == "num_qubits") {
                int64_t n = 0;
                ok = p.parseInt(n) && n >= 0 && n <= (int64_t(1) << 20);
                c.num_qubits = int(n);
            } else if (key == "coupling_mean") {
                ok = p.parseDouble(c.coupling_mean);
            } else if (key == "coupling_stddev") {
                ok = p.parseDouble(c.coupling_stddev);
            } else if (key == "t1") {
                ok = p.parseDoubleArray(c.t1);
            } else if (key == "t2") {
                ok = p.parseDoubleArray(c.t2);
            } else if (key == "anharmonicity") {
                ok = p.parseDoubleArray(c.anharmonicity);
            } else if (key == "edge_u") {
                ok = p.parseIntArray(c.edge_u);
            } else if (key == "edge_v") {
                ok = p.parseIntArray(c.edge_v);
            } else if (key == "zz") {
                ok = p.parseDoubleArray(c.zz);
            }
            if (!ok)
                return fail("");
            if (p.peek('}'))
                break;
            if (!p.consume(','))
                return fail("");
        }
    }
    if (!p.consume('}'))
        return fail("");
    if (!p.atEnd())
        return fail("trailing content after calibration document");
    for (size_t i = 0; i < kNumCalibKeys; ++i) {
        if (!seen[i]) {
            p.fail("missing key '" + std::string(kCalibKeys[i]) + "'");
            return fail("");
        }
    }

    try {
        c.validate();
    } catch (const std::exception &e) {
        return fail(e.what());
    }
    return c;
}

bool
saveCalibrationFile(const Calibration &calib, const std::string &path)
{
    namespace fs = std::filesystem;
    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

    // Writer-private temp file + rename, mirroring the pulse store:
    // concurrent writers can never leave a torn snapshot behind.
    static const unsigned process_tag = std::random_device{}();
    static std::atomic<unsigned> save_counter{0};
    const auto suffix =
        std::to_string(process_tag) + "." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id())) +
        "." + std::to_string(save_counter.fetch_add(1));
    const fs::path tmp = target.string() + ".tmp." + suffix;

    bool ok;
    {
        std::ofstream out(tmp);
        if (!out)
            return false;
        writeCalibrationJson(calib, out);
        out.flush();
        ok = out.good();
    }
    if (ok) {
        fs::rename(tmp, target, ec);
        ok = !ec;
    }
    if (!ok)
        fs::remove(tmp, ec);
    return ok;
}

std::optional<Calibration>
loadCalibrationFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) {
        // An IO error mid-read would otherwise look like truncation;
        // report it as what it is.
        if (error)
            *error = "read error on '" + path + "'";
        return std::nullopt;
    }
    return readCalibrationJson(ss.str(), error);
}

} // namespace qzz::dev
