#include "common/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace qzz::tel {

namespace {

/** Stripe index for the calling thread: round-robin assignment at
 *  first use spreads threads evenly (a thread-id hash clusters). */
size_t
threadStripe()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed);
    return stripe;
}

/** fetch_add for atomic<double> via CAS: portable where the lock-free
 *  floating-point overload is not. */
void
atomicAddDouble(std::atomic<double> &target, double delta)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed))
        ;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name)
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    return true;
}

/** Render a label set as it appears on the wire ("{k=\"v\",...}" or
 *  empty); doubles as the series key, so equal label sets share one
 *  instrument. */
std::string
labelKey(const MetricLabels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += k;
        out += "=\"";
        out += promEscapeLabel(v);
        out += '"';
    }
    out += '}';
    return out;
}

/** Label key with le="bound" appended (histogram bucket series). */
std::string
bucketKey(const MetricLabels &labels, const std::string &le)
{
    std::string out = labels.empty() ? "{" : labelKey(labels);
    if (!labels.empty())
        out.back() = ','; // reopen: swap '}' for ','
    out += "le=\"";
    out += le;
    out += "\"}";
    return out;
}

const char *
kindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter:
        return "counter";
    case MetricKind::Gauge:
        return "gauge";
    case MetricKind::Histogram:
        return "histogram";
    }
    return "untyped";
}

/** Escape a HELP line: the format reserves backslash and newline. */
std::string
escapeHelp(const std::string &help)
{
    std::string out;
    out.reserve(help.size());
    for (char c : help) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Counter

void
Counter::inc(uint64_t n)
{
    shards_[threadStripe() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
}

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (const Shard &s : shards_)
        total += s.v.load(std::memory_order_relaxed);
    return total;
}

// ---------------------------------------------------------------------------
// Gauge

void
Gauge::set(double v)
{
    v_.store(v, std::memory_order_relaxed);
}

void
Gauge::add(double delta)
{
    atomicAddDouble(v_, delta);
}

double
Gauge::value() const
{
    return v_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

HistogramBuckets
HistogramBuckets::logarithmic(double first_bound, double growth, int count)
{
    HistogramBuckets b;
    b.first_bound = first_bound;
    b.growth = growth;
    b.count = count;
    return b;
}

std::vector<double>
HistogramBuckets::bounds() const
{
    require(first_bound > 0.0,
            "HistogramBuckets: first_bound must be > 0");
    require(growth > 1.0, "HistogramBuckets: growth must be > 1");
    require(count >= 1 && count <= 128,
            "HistogramBuckets: count must be in [1, 128]");
    std::vector<double> out;
    out.reserve(size_t(count));
    double bound = first_bound;
    for (int i = 0; i < count; ++i) {
        out.push_back(bound);
        bound *= growth;
    }
    return out;
}

Histogram::Histogram(const HistogramBuckets &buckets)
    : bounds_(buckets.bounds())
{
    const size_t slots = bounds_.size() + 1; // +Inf overflow
    for (Shard &s : shards_) {
        s.counts = std::make_unique<std::atomic<uint64_t>[]>(slots);
        for (size_t i = 0; i < slots; ++i)
            s.counts[i].store(0, std::memory_order_relaxed);
    }
}

void
Histogram::observe(double v)
{
    if (std::isnan(v))
        return;
    if (v < 0.0)
        v = 0.0;
    // Prometheus buckets are inclusive upper bounds (v <= le), so the
    // owning bucket is the first bound >= v.
    const size_t idx = size_t(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    shards_[threadStripe() % kShards].counts[idx].fetch_add(
        1, std::memory_order_relaxed);
    atomicAddDouble(sum_, v);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.bounds = bounds_;
    snap.counts.assign(bounds_.size() + 1, 0);
    for (const Shard &s : shards_)
        for (size_t i = 0; i < snap.counts.size(); ++i)
            snap.counts[i] += s.counts[i].load(std::memory_order_relaxed);
    for (uint64_t c : snap.counts)
        snap.count += c;
    snap.sum = sum_.load(std::memory_order_relaxed);
    return snap;
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (const Shard &s : shards_)
        for (size_t i = 0; i < bounds_.size() + 1; ++i)
            total += s.counts[i].load(std::memory_order_relaxed);
    return total;
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Rank of the target observation (1-based, ceil: the classic
    // nearest-rank definition keeps p100 inside the data).
    const uint64_t rank =
        std::max<uint64_t>(1, uint64_t(std::ceil(q * double(count))));
    uint64_t seen = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        if (seen + counts[i] >= rank) {
            if (i >= bounds.size())
                // +Inf bucket: the histogram cannot resolve beyond
                // its largest finite bound.
                return bounds.empty() ? 0.0 : bounds.back();
            const double lower = i == 0 ? 0.0 : bounds[i - 1];
            const double upper = bounds[i];
            const double into = double(rank - seen) / double(counts[i]);
            return lower + (upper - lower) * into;
        }
        seen += counts[i];
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Family &
MetricsRegistry::familyFor(const std::string &name, const std::string &help,
                           MetricKind kind)
{
    if (!validMetricName(name))
        fatal("MetricsRegistry: invalid metric name \"" + name + "\"");
    auto it = families_.find(name);
    if (it == families_.end()) {
        Family family;
        family.kind = kind;
        family.help = help;
        it = families_.emplace(name, std::move(family)).first;
    } else if (it->second.kind != kind) {
        fatal("MetricsRegistry: \"" + name + "\" already registered as " +
              kindName(it->second.kind));
    }
    return it->second;
}

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help,
                         const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    Family &family = familyFor(name, help, MetricKind::Counter);
    Series &series = family.series[labelKey(labels)];
    if (!series.counter) {
        series.labels = labels;
        series.counter.reset(new Counter());
    }
    return *series.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    Family &family = familyFor(name, help, MetricKind::Gauge);
    Series &series = family.series[labelKey(labels)];
    if (!series.gauge) {
        series.labels = labels;
        series.gauge.reset(new Gauge());
    }
    return *series.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, const std::string &help,
                           const HistogramBuckets &buckets,
                           const MetricLabels &labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    Family &family = familyFor(name, help, MetricKind::Histogram);
    if (family.bounds.empty())
        family.bounds = buckets.bounds();
    else if (family.bounds != buckets.bounds())
        fatal("MetricsRegistry: \"" + name +
              "\" already registered with different buckets");
    Series &series = family.series[labelKey(labels)];
    if (!series.histogram) {
        series.labels = labels;
        series.histogram.reset(new Histogram(buckets));
    }
    return *series.histogram;
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(families_.size());
    for (const auto &[name, family] : families_)
        out.push_back(name);
    return out;
}

std::string
MetricsRegistry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto &[name, family] : families_) {
        out += "# HELP " + name + " " + escapeHelp(family.help) + "\n";
        out += "# TYPE " + name + " " + kindName(family.kind) + "\n";
        for (const auto &[key, series] : family.series) {
            switch (family.kind) {
            case MetricKind::Counter:
                out += name + key + " " +
                       std::to_string(series.counter->value()) + "\n";
                break;
            case MetricKind::Gauge:
                out += name + key + " " +
                       promFormatValue(series.gauge->value()) + "\n";
                break;
            case MetricKind::Histogram: {
                const HistogramSnapshot snap = series.histogram->snapshot();
                uint64_t cumulative = 0;
                for (size_t i = 0; i < snap.bounds.size(); ++i) {
                    cumulative += snap.counts[i];
                    out += name + "_bucket" +
                           bucketKey(series.labels,
                                     promFormatValue(snap.bounds[i])) +
                           " " + std::to_string(cumulative) + "\n";
                }
                out += name + "_bucket" + bucketKey(series.labels, "+Inf") +
                       " " + std::to_string(snap.count) + "\n";
                out += name + "_sum" + key + " " +
                       promFormatValue(snap.sum) + "\n";
                out += name + "_count" + key + " " +
                       std::to_string(snap.count) + "\n";
                break;
            }
            }
        }
    }
    return out;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

// ---------------------------------------------------------------------------
// Formatting helpers

std::string
promEscapeLabel(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
promFormatValue(double v)
{
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

} // namespace qzz::tel
