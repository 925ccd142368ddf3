// serve_mixed: an in-process svc::Server on a unix socket, 2 compile
// workers with the artifact tier on, driven by 3 closed-loop client
// connections.  Half the requests repeat a warm set compiled during
// set-up; the other half are unique and must cold-compile.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.h"
#include "circuit/benchmarks.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "core/pulse_opt.h"
#include "core/schedule_io.h"
#include "service/fingerprint.h"
#include "service/jsonl.h"
#include "service/program_cache.h"
#include "service/server.h"
#include "service/transport.h"

namespace perfbench {

using namespace qzz;
namespace fs = std::filesystem;

namespace {

constexpr int kQubits = 12; // 3x4 grid
constexpr int kWorkers = 2;
constexpr int kClients = 3;
constexpr int kWarmSeedsPerKey = 4;
/** Requests generated before timing; a run stops early if it drains
 *  them. */
constexpr size_t kStreamLength = 60000;
/** suite_s is the wall time per this many completed requests. */
constexpr size_t kBlock = 500;

const char *const kWarmFamilies[] = {"GRC", "QAOA", "HS", "QV"};
/** HS-12 has only 2^12 distinct circuits, so unique cold requests
 *  come from the families with continuous or large random spaces. */
const char *const kColdFamilies[] = {"GRC", "QAOA", "QV"};
const char *const kPulse[] = {"Gaussian", "OptCtrl", "Pert"};
const char *const kSched[] = {"ParSched", "ZZXSched", "ZZXSched"};

struct Request
{
    std::string line; ///< newline-terminated
    bool warm = false;
    /** Index into the warm set (warm requests). */
    size_t warm_key = 0;
};

struct Stream
{
    std::vector<Request> warm_set;
    std::vector<Request> requests;
};

std::string
requestLine(char kind, uint64_t index, const char *family, uint64_t seed,
            int config, uint64_t device_seed)
{
    std::ostringstream os;
    os << "{\"id\":\"" << kind << index << "\",\"benchmark\":\"" << family
       << "\",\"qubits\":" << kQubits << ",\"seed\":" << seed
       << ",\"pulse\":\"" << kPulse[config] << "\",\"sched\":\""
       << kSched[config]
       << "\",\"topology\":\"grid\",\"rows\":3,\"cols\":4,"
          "\"device_seed\":"
       << device_seed << "}\n";
    return os.str();
}

/** The warm set and the request stream of workload seed @p seed. */
Stream
makeStream(uint64_t seed, size_t length)
{
    Stream s;
    const uint64_t device_seed = 1 + splitmix(seed) % 1000;
    for (const char *family : kWarmFamilies)
        for (int config = 0; config < 3; ++config)
            for (int k = 0; k < kWarmSeedsPerKey; ++k) {
                const uint64_t circuit_seed =
                    splitmix(seed ^ (uint64_t(s.warm_set.size()) << 32)) %
                    0x3fffffffULL;
                Request r;
                r.warm = true;
                r.warm_key = s.warm_set.size();
                r.line = requestLine('w', r.warm_key, family, circuit_seed,
                                     config, device_seed);
                s.warm_set.push_back(std::move(r));
            }
    // Cold seeds sit above every warm seed and never repeat in a run.
    const uint64_t cold_base =
        0x40000000ULL + splitmix(~seed) % 0x10000000ULL;
    Rng rng(splitmix(seed + 17));
    s.requests.reserve(length);
    uint64_t cold = 0;
    for (size_t i = 0; i < length; ++i) {
        Request r;
        if (rng.uniform() < 0.5) {
            r = s.warm_set[size_t(rng.uniformInt(
                0, int(s.warm_set.size()) - 1))];
        } else {
            const char *family = kColdFamilies[rng.uniformInt(0, 2)];
            r.line = requestLine('c', cold, family, cold_base + cold,
                                 rng.uniformInt(0, 2), device_seed);
            ++cold;
        }
        s.requests.push_back(std::move(r));
    }
    return s;
}

// ---------------------------------------------------------------------------
// Socket client
// ---------------------------------------------------------------------------

int
connectUnix(const std::string &path)
{
    for (int attempt = 0; attempt < 200; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += size_t(n);
    }
    return true;
}

/** Buffered newline-delimited reader. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    bool
    next(std::string &line)
    {
        for (;;) {
            const size_t nl = buf_.find('\n', scanned_);
            if (nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                scanned_ = 0;
                return true;
            }
            scanned_ = buf_.size();
            char chunk[1 << 16];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return false;
            buf_.append(chunk, size_t(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
    size_t scanned_ = 0;
};

/** The response fields the checks read. */
struct Response
{
    bool ok = false;
    std::string outcome;
    std::string fingerprint;
    int num_qubits = -1;
    double queue_ms = 0.0;
};

std::string
stringField(const std::string &s, const std::string &key)
{
    const std::string pat = "\"" + key + "\":\"";
    const size_t at = s.find(pat);
    if (at == std::string::npos)
        return "";
    const size_t from = at + pat.size();
    const size_t to = s.find('"', from);
    return to == std::string::npos ? "" : s.substr(from, to - from);
}

double
numberField(const std::string &s, const std::string &key, size_t from = 0)
{
    const std::string pat = "\"" + key + "\":";
    const size_t at = s.find(pat, from);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(s.c_str() + at + pat.size(), nullptr);
}

Response
parseResponse(const std::string &line)
{
    Response r;
    const size_t program = line.find("\"program\":");
    const std::string head = line.substr(0, program);
    r.ok = head.find("\"ok\":true") != std::string::npos;
    r.outcome = stringField(head, "outcome");
    r.fingerprint = stringField(head, "fingerprint");
    r.queue_ms = numberField(head, "queue_ms");
    if (program != std::string::npos)
        r.num_qubits = int(numberField(line, "num_qubits", program));
    return r;
}

/** Check one response against its request class; "" when it passes. */
std::string
checkResponse(const Request &req, const Response &r,
              const std::vector<std::string> &warm_fingerprints)
{
    const std::string id =
        req.warm ? "w" + std::to_string(req.warm_key) : "cold";
    if (!r.ok)
        return id + ": response not ok";
    if (r.num_qubits != kQubits)
        return id + ": program.num_qubits " + std::to_string(r.num_qubits);
    if (req.warm) {
        if (r.outcome != "CacheHit" && r.outcome != "Coalesced")
            return id + ": warm request served as " + r.outcome;
        if (r.fingerprint != warm_fingerprints[req.warm_key])
            return id + ": fingerprint changed between repeats";
    } else if (r.outcome != "Compiled") {
        return id + ": cold request served as " + r.outcome;
    }
    return "";
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

/** One in-process server with its own scratch directory. */
class ServeInstance
{
  public:
    explicit ServeInstance(fs::path dir) : dir_(std::move(dir))
    {
        fs::create_directories(dir_ / "artifacts");
        // Relative to the working directory: keeps the socket path
        // short whatever the checkout's absolute path is.
        sock_ = (dir_ / "s.sock").lexically_relative(fs::current_path())
                    .string();
        svc::SocketTransportConfig tc;
        tc.listen = "unix:" + sock_;
        transport_ = std::make_unique<svc::SocketTransport>(tc);
        svc::ServerConfig sc;
        sc.workers = kWorkers;
        sc.artifact_dir = (dir_ / "artifacts").string();
        server_ = std::make_unique<svc::Server>(sc);
        thread_ = std::thread([this] {
            try {
                server_->serve(*transport_);
            } catch (const std::exception &e) {
                // Clients then fail to connect, which the run reports.
                std::cerr << "serve_mixed server: " << e.what() << "\n";
            }
        });
    }

    ServeInstance(const ServeInstance &) = delete;
    ServeInstance &operator=(const ServeInstance &) = delete;

    ~ServeInstance()
    {
        transport_->shutdown();
        thread_.join();
        server_.reset();
        transport_.reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    const std::string &socket() const { return sock_; }

  private:
    fs::path dir_;
    std::string sock_;
    std::unique_ptr<svc::SocketTransport> transport_;
    std::unique_ptr<svc::Server> server_;
    std::thread thread_;
};

/** Compile the warm set through one pipelined connection; returns
 *  each warm key's fingerprint (empty string on failure). */
std::vector<std::string>
prefill(const ServeInstance &server, const Stream &s, Report &report)
{
    std::vector<std::string> fps(s.warm_set.size());
    const int fd = connectUnix(server.socket());
    if (fd < 0) {
        report.fail("prefill: cannot connect to " + server.socket());
        return fps;
    }
    std::string batch;
    for (const Request &r : s.warm_set)
        batch += r.line;
    LineReader reader(fd);
    std::string line;
    if (sendAll(fd, batch))
        for (size_t i = 0; i < s.warm_set.size() && reader.next(line); ++i) {
            const Response r = parseResponse(line);
            if (r.ok && r.num_qubits == kQubits)
                fps[i] = r.fingerprint;
            else
                report.fail("prefill: warm request " + std::to_string(i) +
                            " failed");
        }
    ::close(fd);
    return fps;
}

struct Sample
{
    double start_ms = 0.0;
    double end_ms = 0.0;
    bool warm = false;
    std::string outcome;
    double queue_ms = 0.0;
};

struct LoadResult
{
    std::vector<Sample> samples; ///< in completion order per client
};

/** Closed loop: @p clients connections each send the next stream
 *  request only after the previous response arrived, until
 *  @p seconds pass or the stream runs out. */
LoadResult
runLoad(const ServeInstance &server, const Stream &s,
        const std::vector<std::string> &fps, double seconds, Report &report)
{
    std::atomic<size_t> cursor{0};
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::vector<Sample>> per_client(kClients);
    std::vector<std::vector<std::string>> errors(kClients);
    std::vector<uint64_t> attempted(kClients, 0);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            const int fd = connectUnix(server.socket());
            if (fd < 0) {
                errors[c].push_back("client cannot connect");
                return;
            }
            LineReader reader(fd);
            std::string line;
            while (Clock::now() < deadline) {
                const size_t i = cursor.fetch_add(1);
                if (i >= s.requests.size())
                    break;
                const Request &req = s.requests[i];
                Sample smp;
                smp.warm = req.warm;
                smp.start_ms = msSince(t0);
                ++attempted[c];
                if (!sendAll(fd, req.line) || !reader.next(line)) {
                    errors[c].push_back("connection lost");
                    break;
                }
                smp.end_ms = msSince(t0);
                const Response r = parseResponse(line);
                smp.outcome = r.outcome;
                smp.queue_ms = r.queue_ms;
                const std::string err = checkResponse(req, r, fps);
                if (!err.empty())
                    errors[c].push_back(err);
                per_client[c].push_back(std::move(smp));
            }
            ::close(fd);
        });
    for (std::thread &t : threads)
        t.join();
    LoadResult out;
    uint64_t total_attempted = 0;
    for (int c = 0; c < kClients; ++c) {
        total_attempted += attempted[c];
        for (Sample &smp : per_client[c])
            out.samples.push_back(std::move(smp));
        for (const std::string &e : errors[c])
            report.fail(e);
    }
    uint64_t failed_here = 0;
    for (int c = 0; c < kClients; ++c)
        failed_here += errors[c].size();
    // Every sent request is an attempted operation; the failures were
    // already counted above.
    for (uint64_t i = failed_here; i < total_attempted; ++i)
        report.operation();
    return out;
}

double
requestsPerSecond(const LoadResult &load)
{
    double last = 0.0;
    for (const Sample &s : load.samples)
        last = std::max(last, s.end_ms);
    return last > 0.0 ? double(load.samples.size()) / (last / 1e3) : 0.0;
}

/** Server start + warm prefill, repeated kSetupReps times; the last
 *  instance is returned for measurement. */
struct Setup
{
    Stream stream;
    std::unique_ptr<ServeInstance> server;
    std::vector<std::string> fingerprints;
    std::vector<SetupTimes> times;
};

Setup
setUp(const RunOptions &opt, int reps, Report &report)
{
    Setup s;
    for (int r = 0; r < reps; ++r) {
        SetupTimes t;
        const auto t0 = Clock::now();
        s.server.reset();
        s.stream = makeStream(opt.seed, kStreamLength);
        t.inputs_ms = msSince(t0);
        t.pulse_library_ms = loadPulseLibraries();
        s.server = std::make_unique<ServeInstance>(
            opt.tmp_dir / ("serve-" + std::to_string(r)));
        s.fingerprints = prefill(*s.server, s.stream, report);
        t.total_ms = msSince(t0);
        s.times.push_back(t);
    }
    return s;
}

// ---------------------------------------------------------------------------
// Serial replay through the service's public functions
// ---------------------------------------------------------------------------

struct ReplayTotals
{
    double requests = 0.0;
    double cold = 0.0;
    double artifact_bytes = 0.0;
    double response_bytes = 0.0;
    double native_gates = 0.0;
    double physical_layers = 0.0;
    double swaps = 0.0;
};

/**
 * Replay the warm set then the first @p n stream requests one at a
 * time: parse, generate the circuit and device, fingerprint, probe the
 * cache, and on a miss compile and insert (the artifact write is part
 * of the insert); every request renders its program as the response
 * does.
 */
ReplayTotals
replay(const Stream &s, size_t n, const fs::path &dir, Tracer &tr,
       Report &report)
{
    fs::create_directories(dir / "artifacts");
    svc::ServerConfig sc;
    sc.workers = 1;
    svc::Server devices(sc); // deviceFor() only; never serves
    svc::ProgramCacheConfig cc;
    cc.artifact_dir = (dir / "artifacts").string();
    svc::ProgramCache cache(cc);
    std::map<std::string, std::shared_ptr<const core::Compiler>> compilers;

    std::vector<const Request *> order;
    for (const Request &r : s.warm_set)
        order.push_back(&r);
    for (size_t i = 0; i < std::min(n, s.requests.size()); ++i)
        order.push_back(&s.requests[i]);

    ReplayTotals t;
    for (const Request *req : order) {
        const std::string item =
            req->warm ? "w" + std::to_string(req->warm_key) : "cold";
        Scope root(tr, "request", 0, item);
        std::optional<svc::JsonObject> obj;
        {
            Scope sp(tr, "parse", root.id(), item);
            obj = svc::JsonObject::parse(req->line);
        }
        if (!obj) {
            report.fail("replay: unparsable request");
            continue;
        }
        std::optional<ckt::QuantumCircuit> circuit;
        std::shared_ptr<const dev::Device> device;
        core::CompileOptions options;
        {
            Scope sp(tr, "circuit_gen", root.id(), item);
            circuit = ckt::namedBenchmark(*obj->getString("benchmark"),
                                          int(*obj->getInt("qubits")),
                                          uint64_t(*obj->getInt("seed")));
            device = devices.deviceFor(*obj, kQubits);
            options.pulse = *core::pulseMethodFromName(*obj->getString("pulse"));
            options.sched = *core::schedPolicyFromName(*obj->getString("sched"));
        }
        svc::Fingerprint fp;
        {
            Scope sp(tr, "fingerprint", root.id(), item);
            fp = svc::fingerprintRequest(*circuit, *device, options);
        }
        std::shared_ptr<const core::CompiledProgram> program;
        {
            Scope sp(tr, "cache_lookup", root.id(), item);
            program = cache.lookup(fp);
        }
        if (!program) {
            const std::string key =
                core::pulseMethodName(options.pulse) + "+" +
                core::schedPolicyName(options.sched) + "@" +
                svc::fingerprintDevice(*device).hex();
            auto &compiler = compilers[key];
            if (!compiler) {
                Scope sp(tr, "build", root.id(), item);
                compiler = std::make_shared<const core::Compiler>(
                    core::CompilerBuilder(*device).options(options).build());
            }
            core::CompileResult result;
            {
                Scope sp(tr, "compile", root.id(), item);
                const double start = tr.nowMs();
                result = compiler->compile(svc::canonicalGateOrder(*circuit));
                for (const core::StageDiagnostics &st :
                     result.diagnostics.stages)
                    tr.add(st.stage, sp.id(), start + st.start_ms,
                           start + st.start_ms + st.wall_ms, item);
            }
            if (!result.ok()) {
                report.fail("replay: compile failed: " +
                            result.status.message);
                continue;
            }
            for (const core::StageDiagnostics &st : result.diagnostics.stages)
                if (st.stage == "lower")
                    t.native_gates += st.gates_added;
            t.physical_layers += result.diagnostics.physical_layers;
            t.swaps += result.diagnostics.swaps_inserted;
            program = std::make_shared<const core::CompiledProgram>(
                std::move(result.program));
            const uint64_t before = cache.stats().disk_bytes_written;
            {
                Scope sp(tr, "cache_insert", root.id(), item);
                cache.insert(fp, program);
            }
            t.artifact_bytes +=
                double(cache.stats().disk_bytes_written - before);
            t.cold += 1.0;
        }
        {
            Scope sp(tr, "respond", root.id(), item);
            std::ostringstream os;
            core::ScheduleIoOptions io;
            io.pretty = false;
            io.sample_dt = 0.0;
            core::writeCompiledProgramJson(*program, os, io);
            t.response_bytes += double(os.str().size());
        }
        t.requests += 1.0;
    }
    return t;
}

/**
 * Per-layer metrics of the service path: a closed-loop socket phase of
 * @p socket_seconds (queueing and outcome counts) on a fresh server,
 * then a serial replay of @p replay_n requests (the per-call split).
 * @p own_workload adds the compile layers, coverage and overhead and
 * writes the spans (serve_mixed's traced run; probes skip them).
 */
void
serviceLayers(const RunOptions &opt, int setup_reps, double socket_seconds,
              size_t replay_n, bool own_workload, Report &report)
{
    Setup s = setUp(opt, setup_reps, report);
    if (own_workload)
        reportSetup(report, s.times, true);
    const LoadResult load = runLoad(*s.server, s.stream, s.fingerprints,
                                    socket_seconds, report);
    s.server.reset();
    std::vector<double> queue;
    double hits = 0.0, compiled = 0.0, coalesced = 0.0;
    for (const Sample &smp : load.samples) {
        queue.push_back(smp.queue_ms);
        hits += smp.outcome == "CacheHit";
        compiled += smp.outcome == "Compiled";
        coalesced += smp.outcome == "Coalesced";
    }
    const double done = std::max(1.0, double(load.samples.size()));
    const Percentile q50 = percentile(queue, 0.50);
    const Percentile q99 = percentile(queue, 0.99);
    report.add("service.queue_ms.p50", q50.value, "ms",
               "response queue_ms, n=" + std::to_string(q50.samples));
    report.add("service.queue_ms.p99", q99.value, "ms",
               "response queue_ms, n=" + std::to_string(q99.samples) + ", " +
                   std::to_string(q99.beyond) + " beyond");
    report.add("service.cache_hits", hits, "count");
    report.add("service.compiled", compiled, "count");
    report.add("service.coalesced", coalesced, "count");
    report.add("service.hit_ratio", (hits + coalesced) / done, "ratio",
               "(CacheHit + Coalesced) / responses");

    // The tracing overhead is the traced replay's wall time over that
    // of untraced replays run before and after it (so warm-up does not
    // count as overhead).
    const auto untraced = [&](const char *name) {
        Tracer off(false);
        const auto u0 = Clock::now();
        replay(s.stream, replay_n, opt.tmp_dir / name, off, report);
        return msSince(u0);
    };
    double untraced_ms = untraced("replay-untraced-0");
    Tracer tr(true);
    const auto t0 = Clock::now();
    const ReplayTotals t =
        replay(s.stream, replay_n, opt.tmp_dir / "replay", tr, report);
    const double traced_ms = msSince(t0);
    untraced_ms = 0.5 * (untraced_ms + untraced("replay-untraced-1"));
    const auto total = totalTimeByName(tr.spans());
    const auto self = selfTimeByName(tr.spans());
    const double reqs = std::max(1.0, t.requests);
    const double colds = std::max(1.0, t.cold);
    const std::string per_req = "mean per replayed request";
    const std::string per_cold = "mean per cold request";
    report.add("service.parse_ms", timeOf(total, "parse") / reqs, "ms", per_req);
    report.add("service.circuit_gen_ms", timeOf(total, "circuit_gen") / reqs,
               "ms", per_req);
    report.add("service.fingerprint_ms", timeOf(total, "fingerprint") / reqs,
               "ms", per_req);
    report.add("service.cache_lookup_ms", timeOf(total, "cache_lookup") / reqs,
               "ms", per_req);
    report.add("service.respond_ms", timeOf(total, "respond") / reqs, "ms",
               per_req);
    report.add("service.response_bytes", t.response_bytes / reqs, "bytes",
               per_req);
    report.add("service.compile_ms", timeOf(total, "compile") / colds, "ms",
               per_cold);
    report.add("service.cache_insert_ms", timeOf(total, "cache_insert") / colds,
               "ms", per_cold + ", artifact write included");
    report.add("service.artifact_bytes", t.artifact_bytes / colds, "bytes",
               per_cold);
    if (own_workload) {
        report.add("circuit.route_ms", timeOf(total, "route") / colds, "ms",
                   per_cold);
        report.add("circuit.lower_ms", timeOf(total, "lower") / colds, "ms",
                   per_cold);
        report.add("core.build_ms", timeOf(total, "build"), "ms",
                   "total, one Compiler per (device, options)");
        report.add("core.compile_ms", timeOf(self, "compile") / colds, "ms",
                   per_cold + ", self time outside the stages");
        report.add("core.schedule_ms", timeOf(total, "schedule") / colds, "ms",
                   per_cold);
        report.add("core.pulses_ms", timeOf(total, "pulses") / colds, "ms",
                   per_cold);
        report.add("core.native_gates", t.native_gates / colds, "count",
                   per_cold);
        report.add("core.physical_layers", t.physical_layers / colds,
                   "count", per_cold);
        report.add("core.swaps", t.swaps / colds, "count", per_cold);
        double covered = 0.0, roots = 0.0;
        for (const char *k : {"parse", "circuit_gen", "fingerprint",
                              "cache_lookup", "build", "compile",
                              "cache_insert", "respond"})
            covered += timeOf(total, k);
        roots = timeOf(total, "request");
        report.add("trace.coverage", roots > 0.0 ? covered / roots : 0.0,
                   "ratio", "replay layer spans / request spans");
        report.add("trace.spans", double(tr.spans().size()), "count");
        report.add("trace.overhead", traced_ms / untraced_ms, "ratio",
                   "traced / untraced replay wall time");
        tr.write(opt.out_dir / (opt.workload + "-" +
                                std::to_string(opt.seed) + ".spans.jsonl"));
    }
    std::error_code ec;
    fs::remove_all(opt.tmp_dir / "replay", ec);
    fs::remove_all(opt.tmp_dir / "replay-untraced-0", ec);
    fs::remove_all(opt.tmp_dir / "replay-untraced-1", ec);
}

} // namespace

void
probeServiceLayers(const RunOptions &opt, size_t requests, Report &report)
{
    serviceLayers(opt, 1, 1.0, requests, false, report);
}

void
runServe(const RunOptions &opt, Report &report)
{
    if (!opt.trace) {
        Setup s = setUp(opt, kSetupReps, report);
        const LoadResult load = runLoad(*s.server, s.stream, s.fingerprints,
                                        opt.seconds, report);
        s.server.reset();
        std::vector<double> warm, cold;
        for (const Sample &smp : load.samples)
            (smp.warm ? warm : cold).push_back(smp.end_ms - smp.start_ms);
        reportSetup(report, s.times, false);
        report.add("suite_s", double(kBlock) / requestsPerSecond(load), "s",
                   "wall time per " + std::to_string(kBlock) +
                       " completed requests");
        report.add("req_per_s", requestsPerSecond(load), "1/s",
                   std::to_string(load.samples.size()) + " requests, " +
                       std::to_string(kClients) + " closed-loop clients");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        const std::string warm_what = "CacheHit/Coalesced send-to-response";
        const std::string cold_what = "Compiled send-to-response";
        reportLatency(report, "warm_p50_ms", warm, 0.50, warm_what);
        reportLatency(report, "warm_p99_ms", warm, 0.99, warm_what);
        reportLatency(report, "cold_p50_ms", cold, 0.50, cold_what);
        reportLatency(report, "cold_p99_ms", cold, 0.99, cold_what);
        return;
    }

    serviceLayers(opt, kSetupReps, opt.seconds, 400, true, report);
    probeStateVectorLayers(opt, true, report);
    probeDensityLayers(opt, report);
}

} // namespace perfbench
