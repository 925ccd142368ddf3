/**
 * @file
 * CompileService: an asynchronous, cache-fronted compilation server.
 *
 * The service turns core::Compiler into a long-running serving
 * system:
 *
 *   submit() --> [priority queue] --> worker pool --> futures
 *                      |                  |
 *                      |             ProgramCache (fingerprint-keyed,
 *                      |             sharded LRU + artifact tier)
 *                      |                  |
 *                      +---- compiler registry: one immutable
 *                            core::Compiler per (device, options)
 *                            fingerprint, sharing its CutTables and
 *                            the pulse library across all requests
 *
 * Requests carry a priority (higher served first), an optional
 * deadline (expired requests are failed without compiling), an
 * explicit RNG seed recorded for provenance (the service itself is
 * deterministic: no global RNG anywhere in the request path), and
 * land on a std::future.  Identical concurrent submissions coalesce:
 * at most one cold compile runs per fingerprint at a time, with
 * duplicates parking on the in-flight compilation and resolving as
 * Outcome::Coalesced when it publishes.  Graceful teardown: drain()
 * waits for the queue to empty; shutdown() optionally drains or
 * fails pending requests, then joins the workers.
 *
 * Admission is cache-aware within a priority class: requests whose
 * fingerprint is already resident in the program cache ("warm") jump
 * ahead of cold ones — a warm request costs microseconds and holds a
 * worker for no meaningful time, so boosting it slashes its latency
 * without delaying any cold compile by more than that.  Cold
 * requests are batched per (device, options) compiler key: up to
 * cold_batch_limit consecutive requests sharing one immutable
 * core::Compiler (its routing tables and pulse library) are served
 * back to back for locality, after which the queue rotates to the
 * group holding the oldest waiting request, bounding cross-group
 * unfairness.  Both lanes stay FIFO internally, and turning
 * cache_aware_admission off restores strict FIFO within a priority.
 *
 * Every completed request updates instruments in a
 * tel::MetricsRegistry (counters, queue/latency/compile histograms);
 * MetricsSnapshot is a point-in-time render of those instruments,
 * with p50/p95/p99 derived from the log-bucket latency histogram
 * (the full completion history, not a lossy recent-sample window).
 * When a TraceLog is configured, every request additionally leaves a
 * span tree behind (service/trace.h): queue-wait, cache probe, the
 * compile with its per-pass children, and the artifact write.
 *
 * The JSON-lines wire protocol examples/compile_server speaks on top
 * of this service is specified in docs/protocol.md.
 */

#ifndef QZZ_SERVICE_COMPILE_SERVICE_H
#define QZZ_SERVICE_COMPILE_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/telemetry.h"
#include "core/compiler.h"
#include "service/program_cache.h"
#include "service/trace.h"

namespace qzz::svc {

/** Per-request controls. */
struct RequestOptions
{
    /** Higher priorities are served first; within a priority, warm
     *  (already-cached) requests lead and cold ones batch per
     *  compiler key (see the admission notes above). */
    int priority = 0;
    /** Relative deadline from submit(); requests still queued past it
     *  complete with Outcome::DeadlineExceeded (never compiled). */
    std::optional<std::chrono::milliseconds> deadline;
    /** Provenance: the seed that generated the circuit (echoed into
     *  the result; never read from any global RNG). */
    uint64_t seed = 0;
    /** Bypass the program cache (forces a cold compile). */
    bool use_cache = true;
    /** Trace correlation id, echoed into the result.  When tracing is
     *  enabled and this is empty, submit() mints one
     *  (TraceLog::mintTraceId); clients may supply their own to
     *  stitch qzz spans into a wider trace. */
    std::string trace_id;
};

/** One compilation job. */
struct CompileRequest
{
    ckt::QuantumCircuit circuit;
    /** Shared so thousands of queued requests alias one device. */
    std::shared_ptr<const dev::Device> device;
    core::CompileOptions options;
    RequestOptions request;
};

/** How a request left the service. */
enum class Outcome
{
    Compiled, ///< cold compile succeeded
    CacheHit, ///< served from the program cache
    /** Rode an identical in-flight compilation instead of compiling:
     *  the result shares the primary's program (same shared_ptr) and
     *  compiler status, with the follower's own fingerprint, seed
     *  and queue time; compile_ms is 0 and diagnostics are empty
     *  (the primary did the work).  A primary that *fails* resolves
     *  its followers as Failed, not Coalesced. */
    Coalesced,
    Failed, ///< compiler reported an error (see status)
    Cancelled,        ///< cancelled while queued
    DeadlineExceeded, ///< deadline passed before a worker got to it
    Rejected,         ///< queue full or service shutting down
};

/** Display name of an outcome. */
std::string outcomeName(Outcome outcome);

/** What a request's future resolves to. */
struct ServiceResult
{
    Outcome outcome = Outcome::Rejected;
    /** The compiled program; null unless Compiled / CacheHit. */
    std::shared_ptr<const core::CompiledProgram> program;
    /** Compiler status (set for Compiled / Failed). */
    core::CompileStatus status;
    /** Per-stage diagnostics of a cold compile (empty on cache hit). */
    core::CompileDiagnostics diagnostics;
    /** The request's cache key. */
    Fingerprint fingerprint;
    /** Echo of RequestOptions::seed. */
    uint64_t seed = 0;
    /** Time spent queued / compiling (ms). */
    double queue_ms = 0.0;
    double compile_ms = 0.0;
    /** Completion order stamp (1-based; 0 if never processed). */
    uint64_t completion_seq = 0;
    /** Echo of RequestOptions::trace_id (empty when the client sent
     *  none and tracing is off). */
    std::string trace_id;
    /** Root span id of this request's trace (0 when tracing is off);
     *  the Session parents its respond span on it. */
    uint64_t root_span_id = 0;
    /** Program-cache probe / artifact-write time (ms); 0 when the
     *  step did not run.  Surfaced as trace spans. */
    double cache_probe_ms = 0.0;
    double artifact_write_ms = 0.0;

    bool ok() const { return program != nullptr; }
};

/** A submitted request: its future plus queue-side controls. */
class RequestHandle
{
  public:
    RequestHandle() = default;

    /** Valid once per handle (std::future semantics). */
    std::future<ServiceResult> &future() { return future_; }
    /** Blocking convenience: future().get(). */
    ServiceResult get() { return future_.get(); }

    /** Cancel if still queued; false once a worker picked it up. */
    bool cancel();

    uint64_t id() const { return id_; }
    const Fingerprint &fingerprint() const { return fingerprint_; }

  private:
    friend class CompileService;
    struct Task;
    std::shared_ptr<Task> task_;
    std::future<ServiceResult> future_;
    uint64_t id_ = 0;
    Fingerprint fingerprint_;
};

/** CompileService construction knobs. */
struct CompileServiceConfig
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int num_workers = 0;
    /** Queued-request bound; submissions beyond it are Rejected. */
    size_t max_queue = 4096;
    /** Start with workers paused (tests / queue preloading); call
     *  resume() to begin serving. */
    bool start_paused = false;
    /**
     * Collapse concurrent duplicate requests onto one compilation:
     * when a worker misses the cache but an identical fingerprint is
     * already compiling on another worker, the request parks on that
     * in-flight compile and resolves with Outcome::Coalesced instead
     * of cold-compiling a second time.  Guarantees at most one cold
     * compile per fingerprint among concurrent cache-using
     * submissions (the in-flight registry is checked under one lock
     * with the cache, and the winner publishes to the cache before
     * retiring its registry entry).
     */
    bool coalesce = true;
    /**
     * Cache-aware admission (see the file comment): warm requests
     * jump ahead of cold ones within their priority class, and cold
     * requests are served in per-compiler-key batches.  Off = strict
     * FIFO within a priority.
     */
    bool cache_aware_admission = true;
    /** Consecutive cold requests served from one compiler-key group
     *  before rotating to the group with the oldest waiter (>= 1). */
    int cold_batch_limit = 8;
    ProgramCacheConfig cache;
    /** Instrument registry shared with the rest of the process; null
     *  gives the service (and its cache) a private registry. */
    std::shared_ptr<tel::MetricsRegistry> metrics;
    /** Span sink; null disables tracing entirely. */
    std::shared_ptr<TraceLog> trace;
};

/** Point-in-time service health: counters, latency, cache state. */
struct MetricsSnapshot
{
    uint64_t submitted = 0;
    uint64_t completed = 0; ///< Compiled + CacheHit
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t expired = 0;
    uint64_t rejected = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    /** Requests that rode an identical in-flight compilation instead
     *  of cold-compiling (counted toward completed). */
    uint64_t coalesced = 0;
    /** Requests admitted to the warm lane (fingerprint already
     *  resident at submit time; served ahead of cold peers). */
    uint64_t warm_boosted = 0;
    size_t queue_depth = 0;
    int workers = 0;
    double uptime_ms = 0.0;
    /** Completed requests per second of uptime. */
    double throughput_per_s = 0.0;
    /** End-to-end latency percentiles derived from the log-bucket
     *  latency histogram over the full completion history (ms). */
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    /** Share of lookups answered by the cache (either tier). */
    double cache_hit_rate = 0.0;
    ProgramCacheStats cache_stats;
};

/** The serving front-end over core::Compiler. */
class CompileService
{
  public:
    explicit CompileService(CompileServiceConfig config = {});
    /** Drains pending work, then joins the workers. */
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /** Enqueue one request (thread-safe). */
    RequestHandle submit(CompileRequest request);
    /** Enqueue many requests; handles land in input order. */
    std::vector<RequestHandle>
    submitBatch(std::vector<CompileRequest> requests);

    /** Start serving when constructed with start_paused. */
    void resume();

    /** Block until the queue is empty and no request is in flight. */
    void drain();

    /**
     * Stop accepting requests, then either finish the queue
     * (@p drain_pending) or fail it with Outcome::Cancelled; joins
     * the workers.  Idempotent.
     */
    void shutdown(bool drain_pending = true);

    MetricsSnapshot metrics() const;

    ProgramCache &cache() { return cache_; }
    int numWorkers() const { return int(workers_.size()); }

    /** The instrument registry this service reports into (the
     *  configured one, or the private fallback). */
    tel::MetricsRegistry &metricsRegistry() { return *registry_; }
    /** Null when tracing is off. */
    TraceLog *traceLog() { return config_.trace.get(); }

  private:
    using Clock = std::chrono::steady_clock;
    using TaskPtr = std::shared_ptr<RequestHandle::Task>;

    /** The cache-aware admission queue (defined in the .cc). */
    class Admission;

    struct Inflight;

    void workerLoop();
    void serve(const TaskPtr &task);
    std::shared_ptr<const core::Compiler>
    compilerFor(const TaskPtr &task);
    void finish(const TaskPtr &task, ServiceResult result);
    /** Build and emit the request's span tree (no-op when tracing is
     *  off or the task never got a root span). */
    void emitTrace(const TaskPtr &task, const ServiceResult &result,
                   double latency_ms);
    /** Resolve every follower parked on @p inflight with the primary
     *  compile's outcome (shared program, or the failure status). */
    void resolveFollowers(const std::shared_ptr<Inflight> &inflight,
                          const ServiceResult &primary);

    CompileServiceConfig config_;
    /** Declared before cache_: the cache reports into it. */
    std::shared_ptr<tel::MetricsRegistry> registry_;
    ProgramCache cache_;
    Clock::time_point start_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::unique_ptr<Admission> queue_;
    size_t in_flight_ = 0;
    bool paused_ = false;
    bool accepting_ = true;
    bool stopping_ = false;
    uint64_t next_id_ = 1;

    std::mutex compilers_mu_;
    std::unordered_map<Fingerprint,
                       std::shared_ptr<const core::Compiler>,
                       FingerprintHash>
        compilers_;

    /** In-flight cold compiles by fingerprint; duplicate requests
     *  park here until the primary publishes (request coalescing). */
    std::mutex coalesce_mu_;
    std::unordered_map<Fingerprint, std::shared_ptr<Inflight>,
                       FingerprintHash>
        inflight_;

    /** Registry-owned instruments (qzz_service_*; see
     *  docs/observability.md for the catalog).  Plain pointers: the
     *  registry outlives the service. */
    tel::Counter *submitted_ = nullptr;
    tel::Counter *completed_ = nullptr;
    tel::Counter *failed_ = nullptr;
    tel::Counter *cancelled_ = nullptr;
    tel::Counter *expired_ = nullptr;
    tel::Counter *rejected_ = nullptr;
    tel::Counter *cache_hits_ = nullptr;
    tel::Counter *cache_misses_ = nullptr;
    tel::Counter *coalesced_ = nullptr;
    tel::Counter *warm_boosted_ = nullptr;
    tel::Histogram *latency_hist_ = nullptr;
    tel::Histogram *queue_hist_ = nullptr;
    tel::Histogram *compile_hist_ = nullptr;
    tel::Gauge *queue_depth_gauge_ = nullptr;
    tel::Gauge *workers_gauge_ = nullptr;
    tel::Gauge *uptime_gauge_ = nullptr;

    std::atomic<uint64_t> completion_seq_{0};

    std::vector<std::thread> workers_;
};

} // namespace qzz::svc

#endif // QZZ_SERVICE_COMPILE_SERVICE_H
