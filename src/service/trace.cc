#include "service/trace.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <random>
#include <system_error>

#include "common/error.h"
#include "service/jsonl.h"

namespace qzz::svc {

namespace {

/** splitmix64: avalanche a counter into 64 well-mixed bits. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Milliseconds with microsecond resolution, no exponent. */
std::string
formatMs(double ms)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", ms);
    return buf;
}

} // namespace

std::string
renderTraceSpan(const TraceSpan &span)
{
    std::string out = "{\"trace_id\":\"" + jsonEscape(span.trace_id) +
                      "\",\"span_id\":" + std::to_string(span.span_id) +
                      ",\"parent_id\":" + std::to_string(span.parent_id) +
                      ",\"name\":\"" + jsonEscape(span.name) +
                      "\",\"start_ms\":" + formatMs(span.start_unix_ms) +
                      ",\"dur_ms\":" + formatMs(span.duration_ms);
    if (!span.attrs.empty()) {
        out += ",\"attrs\":{";
        bool first = true;
        for (const auto &[k, v] : span.attrs) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += jsonEscape(k);
            out += "\":\"";
            out += jsonEscape(v);
            out += '"';
        }
        out += '}';
    }
    out += '}';
    return out;
}

TraceLog::TraceLog(TraceLogConfig config)
    : config_(std::move(config))
{
    require(!config_.path.empty(), "TraceLog: path must be non-empty");
    std::error_code ec;
    const auto size = std::filesystem::file_size(config_.path, ec);
    offset_ = ec ? 0 : uint64_t(size);
    out_.open(config_.path, std::ios::app);
    if (!out_.is_open())
        fatal("TraceLog: cannot open \"" + config_.path + "\" for append");
}

void
TraceLog::emit(const TraceSpan &span)
{
    const std::string line = renderTraceSpan(span) + "\n";
    std::lock_guard<std::mutex> lock(mu_);
    writeLocked(line);
    if (span.parent_id == 0)
        maybeLogSlowLocked(span);
}

void
TraceLog::emitTree(const std::vector<TraceSpan> &spans)
{
    if (spans.empty())
        return;
    std::string block;
    for (const TraceSpan &span : spans)
        block += renderTraceSpan(span) + "\n";
    std::lock_guard<std::mutex> lock(mu_);
    writeLocked(block);
    spans_emitted_.fetch_add(spans.size() - 1,
                             std::memory_order_relaxed);
    for (const TraceSpan &span : spans)
        if (span.parent_id == 0)
            maybeLogSlowLocked(span);
}

void
TraceLog::writeLocked(const std::string &line)
{
    if (config_.max_bytes > 0 && offset_ > 0 &&
        offset_ + line.size() > config_.max_bytes) {
        out_.close();
        std::error_code ec;
        const std::string old = config_.path + ".1";
        std::filesystem::remove(old, ec);
        std::filesystem::rename(config_.path, old, ec);
        out_.open(config_.path, std::ios::trunc);
        offset_ = 0;
        rotations_.fetch_add(1, std::memory_order_relaxed);
    }
    out_ << line;
    out_.flush();
    offset_ += line.size();
    spans_emitted_.fetch_add(1, std::memory_order_relaxed);
}

void
TraceLog::maybeLogSlowLocked(const TraceSpan &root)
{
    if (config_.slow_ms <= 0.0 || root.duration_ms < config_.slow_ms)
        return;
    std::string line = "qzz-slow trace_id=" + root.trace_id +
                       " name=" + root.name +
                       " dur_ms=" + formatMs(root.duration_ms);
    for (const auto &[k, v] : root.attrs)
        line += " " + k + "=" + v;
    std::ostream &sink = slow_sink_ ? *slow_sink_ : std::cerr;
    sink << line << std::endl;
    slow_logged_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
TraceLog::spansEmitted() const
{
    return spans_emitted_.load(std::memory_order_relaxed);
}

uint64_t
TraceLog::rotations() const
{
    return rotations_.load(std::memory_order_relaxed);
}

uint64_t
TraceLog::slowLogged() const
{
    return slow_logged_.load(std::memory_order_relaxed);
}

void
TraceLog::setSlowSink(std::ostream *sink)
{
    std::lock_guard<std::mutex> lock(mu_);
    slow_sink_ = sink;
}

std::string
TraceLog::mintTraceId()
{
    // One random 64-bit lane per process (entropy + clock, so forked
    // children diverge) crossed with a process-local counter: ids are
    // unique in-process by construction and collide across processes
    // only if two 64-bit mixes agree.
    static const uint64_t process_lane =
        mix64((uint64_t(std::random_device{}()) << 32) ^
              std::random_device{}() ^
              uint64_t(std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count()));
    static std::atomic<uint64_t> counter{0};
    const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
    return hex16(mix64(process_lane ^ n)) + hex16(mix64(n + process_lane));
}

uint64_t
TraceLog::mintSpanId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace qzz::svc
