#include "service/compile_service.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "common/error.h"

namespace qzz::svc {

// ---------------------------------------------------------------------------
// Task
// ---------------------------------------------------------------------------

namespace {

/** Lifecycle of a queued task (RequestHandle::Task::state). */
enum TaskState : int
{
    kQueued = 0,
    kClaimed = 1,
    kFinished = 2,
    kCancelRequested = 3,
};

} // namespace

struct RequestHandle::Task
{
    /** request.circuit is stored in canonical gate order (rewritten
     *  by submit()), so serve() compiles it directly. */
    CompileRequest request;
    Fingerprint fingerprint;
    /** Compiler-registry key (device x options sub-fingerprints),
     *  precomputed by submit() so serve() need not rehash. */
    Fingerprint compiler_key;
    uint64_t id = 0;
    /** FIFO tiebreak within a lane (equals the submit id). */
    uint64_t seq = 0;
    /** Admission hint: the fingerprint was cache-resident at
     *  submit time (see CompileService::Admission). */
    bool warm = false;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point enqueued;
    /** Wall-clock enqueue time (ms since the unix epoch): the base
     *  every span start in this request's trace is laid out from. */
    double enqueued_unix_ms = 0.0;
    /** Root span id, minted at submit() when tracing is on (0 off). */
    uint64_t root_span_id = 0;
    std::promise<ServiceResult> promise;
    std::atomic<int> state{kQueued};
};

/** Followers parked on one in-flight cold compile. */
struct CompileService::Inflight
{
    std::vector<TaskPtr> followers;
};

/**
 * The cache-aware admission queue (guarded by CompileService::mu_).
 *
 * Per priority class (higher first) there are two lanes:
 *   - warm: requests whose fingerprint was cache-resident at submit
 *     time, FIFO.  Always served before the cold lane of the same
 *     class — a warm request only needs a cache read, so boosting it
 *     costs the cold work nothing measurable.
 *   - cold: requests grouped per compiler key (device x options), so
 *     consecutive cold compiles share one immutable core::Compiler's
 *     routing tables and pulse library.  The queue serves up to
 *     batch_limit requests from the sticky active group, then
 *     rotates to the group holding the oldest waiter, which bounds
 *     how long a group can be starved by a hot neighbour.
 *
 * With cache_aware off, every task lands in one cold group per
 * class, which degenerates to the classic strict FIFO per priority.
 */
class CompileService::Admission
{
  public:
    Admission(bool cache_aware, int batch_limit)
        : cache_aware_(cache_aware), batch_limit_(batch_limit)
    {
    }

    void
    push(const TaskPtr &task)
    {
        Class &cls = classes_[task->request.request.priority];
        if (cache_aware_ && task->warm) {
            cls.warm.push_back(task);
        } else {
            const Fingerprint key =
                cache_aware_ ? task->compiler_key : Fingerprint{};
            cls.cold[key].push_back(task);
        }
        ++total_;
    }

    /** Next task per the admission policy; requires !empty(). */
    TaskPtr
    pop()
    {
        auto cls_it = classes_.begin();
        Class &cls = cls_it->second;
        TaskPtr task;
        if (!cls.warm.empty()) {
            task = cls.warm.front();
            cls.warm.pop_front();
        } else {
            auto group = cls.cold.end();
            if (cls.has_active &&
                cls.served_in_batch < batch_limit_)
                group = cls.cold.find(cls.active_key);
            if (group == cls.cold.end()) {
                // Rotate to the group with the oldest waiting head.
                uint64_t oldest = ~uint64_t(0);
                for (auto it = cls.cold.begin(); it != cls.cold.end();
                     ++it) {
                    if (it->second.front()->seq < oldest) {
                        oldest = it->second.front()->seq;
                        group = it;
                    }
                }
                cls.active_key = group->first;
                cls.has_active = true;
                cls.served_in_batch = 0;
            }
            task = group->second.front();
            group->second.pop_front();
            ++cls.served_in_batch;
            if (group->second.empty()) {
                cls.cold.erase(group);
                cls.has_active = false;
            }
        }
        if (cls.warm.empty() && cls.cold.empty())
            classes_.erase(cls_it);
        --total_;
        return task;
    }

    bool empty() const { return total_ == 0; }
    size_t size() const { return total_; }

    /** Remove and return everything (shutdown without drain). */
    std::vector<TaskPtr>
    drainAll()
    {
        std::vector<TaskPtr> all;
        all.reserve(total_);
        for (auto &[priority, cls] : classes_) {
            all.insert(all.end(), cls.warm.begin(), cls.warm.end());
            for (auto &[key, group] : cls.cold)
                all.insert(all.end(), group.begin(), group.end());
        }
        classes_.clear();
        total_ = 0;
        return all;
    }

  private:
    struct Class
    {
        std::deque<TaskPtr> warm;
        std::unordered_map<Fingerprint, std::deque<TaskPtr>,
                           FingerprintHash>
            cold;
        Fingerprint active_key;
        bool has_active = false;
        int served_in_batch = 0;
    };

    bool cache_aware_;
    int batch_limit_;
    /** Highest priority first. */
    std::map<int, Class, std::greater<int>> classes_;
    size_t total_ = 0;
};

bool
RequestHandle::cancel()
{
    if (!task_)
        return false;
    int expected = kQueued;
    return task_->state.compare_exchange_strong(expected,
                                                kCancelRequested);
}

std::string
outcomeName(Outcome outcome)
{
    switch (outcome) {
    case Outcome::Compiled:
        return "Compiled";
    case Outcome::CacheHit:
        return "CacheHit";
    case Outcome::Coalesced:
        return "Coalesced";
    case Outcome::Failed:
        return "Failed";
    case Outcome::Cancelled:
        return "Cancelled";
    case Outcome::DeadlineExceeded:
        return "DeadlineExceeded";
    case Outcome::Rejected:
        return "Rejected";
    }
    return "Unknown";
}

// ---------------------------------------------------------------------------
// CompileService
// ---------------------------------------------------------------------------

namespace {

/** The service's cache always reports into the service's registry
 *  unless the caller wired its own. */
ProgramCacheConfig
cacheConfigWithRegistry(ProgramCacheConfig config,
                        std::shared_ptr<tel::MetricsRegistry> registry)
{
    if (!config.metrics)
        config.metrics = std::move(registry);
    return config;
}

/** Latency-style buckets: 10us first bound, doubling, top finite
 *  bound ~5.6 minutes — wide enough for any sane compile. */
tel::HistogramBuckets
latencyBuckets()
{
    return tel::HistogramBuckets::logarithmic(0.01, 2.0, 26);
}

double
unixNowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace

CompileService::CompileService(CompileServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.metrics
                    ? config_.metrics
                    : std::make_shared<tel::MetricsRegistry>()),
      cache_(cacheConfigWithRegistry(config_.cache, registry_)),
      start_(Clock::now()),
      queue_(std::make_unique<Admission>(config_.cache_aware_admission,
                                         config_.cold_batch_limit)),
      paused_(config_.start_paused)
{
    require(config_.cold_batch_limit >= 1,
            "CompileService: cold_batch_limit must be >= 1");
    tel::MetricsRegistry &reg = *registry_;
    submitted_ = &reg.counter("qzz_service_requests_submitted_total",
                              "Requests accepted by submit().");
    completed_ = &reg.counter(
        "qzz_service_requests_completed_total",
        "Requests resolved with a program (Compiled, CacheHit or "
        "Coalesced).");
    failed_ = &reg.counter("qzz_service_requests_failed_total",
                           "Requests whose compile reported an error.");
    cancelled_ = &reg.counter("qzz_service_requests_cancelled_total",
                              "Requests cancelled while queued.");
    expired_ = &reg.counter(
        "qzz_service_requests_expired_total",
        "Requests whose deadline passed before a worker got to them.");
    rejected_ = &reg.counter(
        "qzz_service_requests_rejected_total",
        "Submissions refused (queue full or shutting down).");
    cache_hits_ = &reg.counter(
        "qzz_service_cache_probe_hits_total",
        "Request-path cache probes answered by either cache tier.");
    cache_misses_ = &reg.counter(
        "qzz_service_cache_probe_misses_total",
        "Request-path cache probes that led to a cold compile.");
    coalesced_ = &reg.counter(
        "qzz_service_requests_coalesced_total",
        "Requests that rode an identical in-flight compilation.");
    warm_boosted_ = &reg.counter(
        "qzz_service_requests_warm_boosted_total",
        "Requests admitted to the warm lane (cache-resident at "
        "submit).");
    latency_hist_ = &reg.histogram(
        "qzz_service_request_latency_ms",
        "End-to-end request latency (submit to resolve), ms.",
        latencyBuckets());
    queue_hist_ = &reg.histogram(
        "qzz_service_queue_wait_ms",
        "Time a request waited in the admission queue, ms.",
        latencyBuckets());
    compile_hist_ = &reg.histogram(
        "qzz_service_compile_ms",
        "Wall time of cold compiles actually run, ms.",
        latencyBuckets());
    queue_depth_gauge_ = &reg.gauge("qzz_service_queue_depth",
                                    "Requests currently queued.");
    workers_gauge_ =
        &reg.gauge("qzz_service_workers", "Worker thread count.");
    uptime_gauge_ = &reg.gauge("qzz_service_uptime_ms",
                               "Service uptime, ms.");
    int n = config_.num_workers;
    if (n <= 0)
        n = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(size_t(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    workers_gauge_->set(double(n));
}

CompileService::~CompileService() { shutdown(true); }

RequestHandle
CompileService::submit(CompileRequest request)
{
    require(request.device != nullptr,
            "CompileService::submit: request has no device");

    RequestHandle handle;
    auto task = std::make_shared<RequestHandle::Task>();
    // Canonicalize once: the same gate order feeds the fingerprint
    // and (on a miss) the compile, so the sub-fingerprints computed
    // here are not rehashed on the worker.
    request.circuit = canonicalGateOrder(request.circuit);
    const Fingerprint circuit_fp =
        fingerprintOrderedCircuit(request.circuit);
    const Fingerprint device_fp = fingerprintDevice(*request.device);
    const Fingerprint options_fp = fingerprintOptions(request.options);
    task->fingerprint =
        composeRequestFingerprint(circuit_fp, device_fp, options_fp);
    FingerprintBuilder key;
    key.mix(std::string_view("compiler"));
    key.mix(device_fp);
    key.mix(options_fp);
    task->compiler_key = key.finish();
    task->request = std::move(request);
    task->enqueued = Clock::now();
    task->enqueued_unix_ms = unixNowMs();
    if (config_.trace) {
        if (task->request.request.trace_id.empty())
            task->request.request.trace_id = TraceLog::mintTraceId();
        task->root_span_id = TraceLog::mintSpanId();
    }
    if (task->request.request.deadline)
        task->deadline = task->enqueued + *task->request.request.deadline;
    handle.task_ = task;
    handle.fingerprint_ = task->fingerprint;
    handle.future_ = task->promise.get_future();

    bool accepted = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (accepting_ && queue_->size() < config_.max_queue) {
            task->id = next_id_++;
            task->seq = task->id;
            handle.id_ = task->id;
            // The warm probe happens at admission time, under mu_, so
            // the lane choice is consistent with everything already
            // queued; a fingerprint evicted between here and serve()
            // just costs that one request a cold compile.
            task->warm = task->request.request.use_cache &&
                         config_.cache_aware_admission &&
                         cache_.contains(task->fingerprint);
            queue_->push(task);
            accepted = true;
        }
    }
    if (accepted) {
        submitted_->inc();
        if (task->warm)
            warm_boosted_->inc();
        work_cv_.notify_one();
    } else {
        rejected_->inc();
        ServiceResult result;
        result.outcome = Outcome::Rejected;
        result.fingerprint = task->fingerprint;
        result.seed = task->request.request.seed;
        result.trace_id = task->request.request.trace_id;
        task->state.store(kFinished);
        task->promise.set_value(std::move(result));
    }
    return handle;
}

std::vector<RequestHandle>
CompileService::submitBatch(std::vector<CompileRequest> requests)
{
    std::vector<RequestHandle> handles;
    handles.reserve(requests.size());
    for (CompileRequest &request : requests)
        handles.push_back(submit(std::move(request)));
    return handles;
}

void
CompileService::resume()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        paused_ = false;
    }
    work_cv_.notify_all();
}

void
CompileService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock,
                  [this] { return queue_->empty() && in_flight_ == 0; });
}

void
CompileService::shutdown(bool drain_pending)
{
    std::vector<TaskPtr> dropped;
    {
        std::lock_guard<std::mutex> lock(mu_);
        accepting_ = false;
        paused_ = false;
        if (!drain_pending)
            dropped = queue_->drainAll();
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (const TaskPtr &task : dropped) {
        cancelled_->inc();
        ServiceResult result;
        result.outcome = Outcome::Cancelled;
        result.fingerprint = task->fingerprint;
        result.seed = task->request.request.seed;
        result.trace_id = task->request.request.trace_id;
        task->state.store(kFinished);
        task->promise.set_value(std::move(result));
    }
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
    idle_cv_.notify_all();
}

void
CompileService::workerLoop()
{
    for (;;) {
        TaskPtr task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [this] {
                return stopping_ || (!paused_ && !queue_->empty());
            });
            if (!paused_ && !queue_->empty()) {
                task = queue_->pop();
                ++in_flight_;
            } else if (stopping_) {
                return;
            } else {
                continue;
            }
        }
        serve(task);
        {
            std::lock_guard<std::mutex> lock(mu_);
            --in_flight_;
            if (queue_->empty() && in_flight_ == 0)
                idle_cv_.notify_all();
        }
    }
}

void
CompileService::serve(const TaskPtr &task)
{
    const auto picked_up = Clock::now();
    ServiceResult result;
    result.fingerprint = task->fingerprint;
    result.seed = task->request.request.seed;
    result.queue_ms = std::chrono::duration<double, std::milli>(
                          picked_up - task->enqueued)
                          .count();

    int expected = kQueued;
    if (!task->state.compare_exchange_strong(expected, kClaimed)) {
        // The only competing transition is a queued-side cancel().
        cancelled_->inc();
        result.outcome = Outcome::Cancelled;
        finish(task, std::move(result));
        return;
    }
    if (task->deadline && picked_up > *task->deadline) {
        expired_->inc();
        result.outcome = Outcome::DeadlineExceeded;
        finish(task, std::move(result));
        return;
    }

    const CompileRequest &request = task->request;
    // Probe time accumulates across both lookups (the plain one and
    // the re-check under the coalesce lock) into one span.
    const auto timedLookup = [this, &task, &result] {
        const auto probe_start = Clock::now();
        auto program = cache_.lookup(task->fingerprint);
        result.cache_probe_ms +=
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      probe_start)
                .count();
        return program;
    };
    std::shared_ptr<Inflight> inflight;
    if (request.request.use_cache) {
        if (auto program = timedLookup()) {
            cache_hits_->inc();
            completed_->inc();
            result.outcome = Outcome::CacheHit;
            result.program = std::move(program);
            finish(task, std::move(result));
            return;
        }
        if (config_.coalesce) {
            std::lock_guard<std::mutex> lock(coalesce_mu_);
            auto it = inflight_.find(task->fingerprint);
            if (it != inflight_.end()) {
                // An identical compile is already in flight on
                // another worker: park on it.  The primary resolves
                // this task's promise when it publishes, and this
                // worker is immediately free for other requests.
                // Counted as coalesced, not as a cache miss — the
                // hit rate should reflect compiles actually run.
                it->second->followers.push_back(task);
                return;
            }
            // Primary election re-checks the cache under the registry
            // lock: a finishing primary inserts into the cache before
            // retiring its registry entry (also under this lock), so
            // "no entry and still a miss" proves no successful
            // duplicate compile finished in between — concurrent
            // identical submissions cold-compile at most once.
            if (auto program = timedLookup()) {
                cache_hits_->inc();
                completed_->inc();
                result.outcome = Outcome::CacheHit;
                result.program = std::move(program);
                finish(task, std::move(result));
                return;
            }
            inflight = std::make_shared<Inflight>();
            inflight_.emplace(task->fingerprint, inflight);
        }
        // Only an elected primary (or a cold compile with coalescing
        // off) is a real miss: it runs the compiler.
        cache_misses_->inc();
    }

    // request.circuit is already in canonical gate order (submit()
    // rewrote it): routing and scheduling are list-order sensitive,
    // so compiling the canonical form is what makes every DAG-equal
    // submission of this fingerprint receive the same bit-identical
    // program, whether it compiles cold here or lands on the cache
    // entry a reordered twin wrote.
    const auto compile_start = Clock::now();
    core::CompileResult compiled;
    try {
        const std::shared_ptr<const core::Compiler> compiler =
            compilerFor(task);
        compiled = compiler->compile(request.circuit);
    } catch (const UserError &e) {
        // compile() maps exceptions to a status itself, but building
        // the Compiler (per-device tables: planar embedding,
        // all-pairs distances) can throw on a degenerate device —
        // that must fail this request, never escape the worker
        // thread and terminate the service.
        compiled.status.code = core::CompileStatusCode::InvalidInput;
        compiled.status.pass = "prepare";
        compiled.status.message = e.what();
    } catch (const std::exception &e) {
        compiled.status.code = core::CompileStatusCode::Internal;
        compiled.status.pass = "prepare";
        compiled.status.message = e.what();
    }
    result.compile_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - compile_start)
                            .count();
    result.status = std::move(compiled.status);
    result.diagnostics = std::move(compiled.diagnostics);
    if (result.status.ok()) {
        auto program = std::make_shared<const core::CompiledProgram>(
            std::move(compiled.program));
        if (request.request.use_cache) {
            const auto write_start = Clock::now();
            cache_.insert(task->fingerprint, program);
            result.artifact_write_ms =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          write_start)
                    .count();
        }
        completed_->inc();
        result.outcome = Outcome::Compiled;
        result.program = std::move(program);
    } else {
        failed_->inc();
        result.outcome = Outcome::Failed;
    }
    if (inflight)
        resolveFollowers(inflight, result);
    finish(task, std::move(result));
}

void
CompileService::resolveFollowers(
    const std::shared_ptr<Inflight> &inflight,
    const ServiceResult &primary)
{
    std::vector<TaskPtr> followers;
    {
        // Retire the registry entry only now — after the successful
        // program has been inserted into the cache — so a racing
        // duplicate that finds no entry is guaranteed to find the
        // cache entry instead (see the primary-election comment in
        // serve()).  Followers stop accumulating once the entry is
        // gone.
        std::lock_guard<std::mutex> lock(coalesce_mu_);
        inflight_.erase(primary.fingerprint);
        followers.swap(inflight->followers);
    }
    for (const TaskPtr &follower : followers) {
        ServiceResult result;
        result.fingerprint = follower->fingerprint;
        result.seed = follower->request.request.seed;
        result.queue_ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - follower->enqueued)
                              .count();
        result.status = primary.status;
        if (primary.program) {
            coalesced_->inc();
            completed_->inc();
            result.outcome = Outcome::Coalesced;
            result.program = primary.program;
        } else {
            failed_->inc();
            result.outcome = Outcome::Failed;
        }
        finish(follower, std::move(result));
    }
}

std::shared_ptr<const core::Compiler>
CompileService::compilerFor(const TaskPtr &task)
{
    const CompileRequest &request = task->request;
    const Fingerprint &key = task->compiler_key;
    {
        std::lock_guard<std::mutex> lock(compilers_mu_);
        auto it = compilers_.find(key);
        if (it != compilers_.end())
            return it->second;
    }
    // Build outside the lock: the CutTables (planar embedding,
    // all-pairs distances) are expensive, and holding the registry
    // mutex through a build would serialize workers on unrelated
    // devices.  Two workers racing on the same cold key build twice;
    // the first to publish wins and the duplicate is dropped —
    // wasted work, never wrong results.
    auto compiler = std::make_shared<const core::Compiler>(
        core::CompilerBuilder(*request.device)
            .options(request.options)
            .build());
    std::lock_guard<std::mutex> lock(compilers_mu_);
    auto [it, inserted] = compilers_.emplace(key, compiler);
    return inserted ? compiler : it->second;
}

void
CompileService::finish(const TaskPtr &task, ServiceResult result)
{
    const double latency = std::chrono::duration<double, std::milli>(
                               Clock::now() - task->enqueued)
                               .count();
    if (result.outcome == Outcome::Compiled ||
        result.outcome == Outcome::CacheHit ||
        result.outcome == Outcome::Coalesced ||
        result.outcome == Outcome::Failed) {
        latency_hist_->observe(latency);
        queue_hist_->observe(result.queue_ms);
        if (result.outcome == Outcome::Compiled ||
            result.outcome == Outcome::Failed)
            compile_hist_->observe(result.compile_ms);
    }
    result.completion_seq =
        completion_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    result.trace_id = task->request.request.trace_id;
    result.root_span_id = task->root_span_id;
    emitTrace(task, result, latency);
    task->state.store(kFinished);
    task->promise.set_value(std::move(result));
}

void
CompileService::emitTrace(const TaskPtr &task,
                          const ServiceResult &result, double latency_ms)
{
    TraceLog *trace = config_.trace.get();
    if (!trace || task->root_span_id == 0)
        return;
    // Span starts are laid out sequentially from the wall-clock
    // enqueue time: queue wait, then the cache probe, then the
    // compile (whose pass children carry their measured offsets),
    // then the artifact write.  Every duration is measured; only the
    // start offsets are reconstructed.
    const double base = task->enqueued_unix_ms;
    const std::string &tid = task->request.request.trace_id;
    std::vector<TraceSpan> spans;

    TraceSpan root;
    root.trace_id = tid;
    root.span_id = task->root_span_id;
    root.name = "request";
    root.start_unix_ms = base;
    root.duration_ms = latency_ms;
    root.attrs.emplace_back("outcome", outcomeName(result.outcome));
    root.attrs.emplace_back("fingerprint", result.fingerprint.hex());
    spans.push_back(std::move(root));

    const auto child = [&](const std::string &name, double start_off,
                           double dur) {
        TraceSpan span;
        span.trace_id = tid;
        span.span_id = TraceLog::mintSpanId();
        span.parent_id = task->root_span_id;
        span.name = name;
        span.start_unix_ms = base + start_off;
        span.duration_ms = dur;
        return span;
    };

    spans.push_back(child("queue_wait", 0.0, result.queue_ms));
    double offset = result.queue_ms;
    if (result.cache_probe_ms > 0.0) {
        spans.push_back(
            child("cache_probe", offset, result.cache_probe_ms));
        offset += result.cache_probe_ms;
    }
    if (result.outcome == Outcome::Compiled ||
        result.outcome == Outcome::Failed) {
        TraceSpan compile = child("compile", offset, result.compile_ms);
        const uint64_t compile_id = compile.span_id;
        const double compile_start = compile.start_unix_ms;
        spans.push_back(std::move(compile));
        for (const core::StageDiagnostics &stage :
             result.diagnostics.stages) {
            TraceSpan pass;
            pass.trace_id = tid;
            pass.span_id = TraceLog::mintSpanId();
            pass.parent_id = compile_id;
            pass.name = stage.stage;
            pass.start_unix_ms = compile_start + stage.start_ms;
            pass.duration_ms = stage.wall_ms;
            spans.push_back(std::move(pass));
        }
        offset += result.compile_ms;
    }
    if (result.artifact_write_ms > 0.0)
        spans.push_back(
            child("artifact_write", offset, result.artifact_write_ms));
    trace->emitTree(spans);
}

MetricsSnapshot
CompileService::metrics() const
{
    MetricsSnapshot m;
    m.submitted = submitted_->value();
    m.completed = completed_->value();
    m.failed = failed_->value();
    m.cancelled = cancelled_->value();
    m.expired = expired_->value();
    m.rejected = rejected_->value();
    m.cache_hits = cache_hits_->value();
    m.cache_misses = cache_misses_->value();
    m.coalesced = coalesced_->value();
    m.warm_boosted = warm_boosted_->value();
    {
        std::lock_guard<std::mutex> lock(mu_);
        m.queue_depth = queue_->size();
    }
    m.workers = int(workers_.size());
    m.uptime_ms = std::chrono::duration<double, std::milli>(
                      Clock::now() - start_)
                      .count();
    m.throughput_per_s = m.uptime_ms > 0.0
                             ? double(m.completed) * 1e3 / m.uptime_ms
                             : 0.0;
    // One histogram snapshot feeds all three percentiles, so they are
    // mutually consistent (p50 <= p95 <= p99 by construction) and
    // weight the full completion history instead of a lossy
    // recent-sample ring.
    const tel::HistogramSnapshot latency = latency_hist_->snapshot();
    m.latency_p50_ms = latency.quantile(0.50);
    m.latency_p95_ms = latency.quantile(0.95);
    m.latency_p99_ms = latency.quantile(0.99);
    const uint64_t looked_up = m.cache_hits + m.cache_misses;
    m.cache_hit_rate =
        looked_up == 0 ? 0.0 : double(m.cache_hits) / double(looked_up);
    m.cache_stats = cache_.stats();
    // Refresh the scrape-side gauges on the same read path, so a
    // GET /metrics render (which calls this first) exports current
    // values without its own locking discipline.
    queue_depth_gauge_->set(double(m.queue_depth));
    uptime_gauge_->set(m.uptime_ms);
    return m;
}

} // namespace qzz::svc
