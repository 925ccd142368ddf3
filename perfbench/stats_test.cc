// Self-tests for the benchmark's percentile and self-time helpers.
// Run: perfbench_selftest (exit code 0 = all passed), or
// `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(double(i)); // unsorted input
    const Percentile p50 = percentile(v, 0.50);
    check(near(p50.value, 50.0), "p50 of 1..100 is 50");
    check(p50.samples == 100 && p50.beyond == 50, "p50 counts");
    const Percentile p99 = percentile(v, 0.99);
    check(near(p99.value, 99.0), "p99 of 1..100 is 99");
    check(p99.beyond == 1, "p99 of 100 samples leaves 1 beyond");
    const Percentile p100 = percentile(v, 1.0);
    check(near(p100.value, 100.0) && p100.beyond == 0, "p100 is the max");

    // 1000 samples: p99 has 10 samples beyond it.
    std::vector<double> big(1000);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = double(i);
    const Percentile b99 = percentile(big, 0.99);
    check(near(b99.value, 989.0) && b99.beyond == 10,
          "p99 of 1000 samples is rank 990 with 10 beyond");

    const Percentile one = percentile({7.0}, 0.99);
    check(near(one.value, 7.0) && one.samples == 1 && one.beyond == 0,
          "single sample");
    const Percentile none = percentile({}, 0.5);
    check(none.samples == 0 && none.value == 0.0, "empty input");
    // The result is always an observed sample, never interpolated.
    const Percentile two = percentile({1.0, 3.0}, 0.5);
    check(near(two.value, 1.0), "nearest rank does not interpolate");
    // Monotone in q.
    double last = -1.0;
    for (double q = 0.01; q <= 1.0; q += 0.01) {
        const double x = percentile(v, q).value;
        check(x >= last, "percentile monotone in q");
        last = x;
    }
}

void
testMedian()
{
    check(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
    check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
    check(median({}) == 0.0, "empty median");
}

Span
span(int64_t id, int64_t parent, const std::string &name, double a,
     double b)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ms = a;
    s.end_ms = b;
    return s;
}

void
testSelfTimes()
{
    // root [0,10] with children [1,3] and [2,6] (overlapping) and a
    // grandchild [2,2.5] under the second child.
    const std::vector<Span> spans = {
        span(1, 0, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 3.0),
        span(3, 1, "b", 2.0, 6.0),
        span(4, 3, "c", 2.0, 2.5),
    };
    const std::vector<double> self = selfTimes(spans);
    check(near(self[0], 5.0), "root self = 10 - union([1,3],[2,6])");
    check(near(self[1], 2.0), "leaf self = duration");
    check(near(self[2], 3.5), "child self excludes grandchild");
    check(near(self[3], 0.5), "grandchild self");

    // A child sticking out of its parent is clipped to it.
    const std::vector<Span> clipped = {
        span(1, 0, "p", 0.0, 4.0),
        span(2, 1, "x", 3.0, 9.0),
    };
    check(near(selfTimes(clipped)[0], 3.0), "child clipped to parent");

    // Children covering the parent entirely leave zero, not negative.
    const std::vector<Span> full = {
        span(1, 0, "p", 0.0, 2.0),
        span(2, 1, "x", 0.0, 1.5),
        span(3, 1, "y", 1.0, 2.0),
    };
    check(near(selfTimes(full)[0], 0.0), "fully covered parent");

    const auto by_name = selfTimeByName({
        span(1, 0, "cell", 0.0, 4.0),
        span(2, 1, "sim", 0.0, 3.0),
        span(3, 0, "cell", 4.0, 6.0),
        span(4, 3, "sim", 4.0, 5.0),
    });
    check(near(by_name.at("cell"), 2.0), "self time summed per name");
    check(near(by_name.at("sim"), 4.0), "leaf totals per name");
    const auto totals = totalTimeByName({span(1, 0, "a", 1.0, 2.5),
                                         span(2, 0, "a", 3.0, 3.5)});
    check(near(totals.at("a"), 2.0), "total time per name");
}

} // namespace

int
main()
{
    testPercentile();
    testMedian();
    testSelfTimes();
    if (failures != 0) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-tests passed\n";
    return 0;
}
