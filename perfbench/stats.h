/**
 * @file
 * Order statistics and span self-time accounting for the repository
 * benchmark.  Header-only so the self-test links nothing but this.
 */

#ifndef QZZ_PERFBENCH_STATS_H
#define QZZ_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** A percentile together with the samples it was taken from. */
struct Percentile
{
    double value = 0.0;
    /** Samples the percentile was taken over. */
    size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    size_t beyond = 0;
};

/**
 * Nearest-rank percentile: the smallest sample with at least
 * q * N samples at or below it (rank ceil(q * N), 1-based), so the
 * result is always an observed value.  Empty input gives samples = 0.
 */
inline Percentile
percentile(std::vector<double> values, double q)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    const double exact = q * double(values.size());
    size_t rank = size_t(std::ceil(exact - 1e-9));
    rank = std::clamp<size_t>(rank, 1, values.size());
    p.value = values[rank - 1];
    p.beyond = values.size() - rank;
    return p;
}

/** Median (mean of the two middle samples for an even count); 0 for
 *  empty input. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** One timed interval of the benchmark's own trace. */
struct Span
{
    /** 1-based position in the trace; 0 is "no span". */
    int64_t id = 0;
    /** Enclosing span, 0 for a root. */
    int64_t parent = 0;
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    /** The cell or request the span belongs to. */
    std::string item;

    double duration() const { return end_ms - start_ms; }
};

/**
 * Self time of every span (indexed like @p spans): its duration minus
 * the part of its interval covered by its direct children.  Child
 * intervals are clipped to the parent and overlapping children are
 * counted once, so self time is never negative.
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<int64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span &p = spans[it->second];
        const double lo = std::max(s.start_ms, p.start_ms);
        const double hi = std::min(s.end_ms, p.end_ms);
        if (hi > lo)
            children[it->second].push_back({lo, hi});
    }
    std::vector<double> out(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double cur_lo = 0.0, cur_hi = 0.0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        out[i] = std::max(0.0, spans[i].duration() - covered);
    }
    return out;
}

/** Self time summed per span name. */
inline std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

/** Total duration summed per span name. */
inline std::map<std::string, double>
totalTimeByName(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    for (const Span &s : spans)
        out[s.name] += s.duration();
    return out;
}

} // namespace perfbench

#endif // QZZ_PERFBENCH_STATS_H
