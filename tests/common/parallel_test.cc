#include "common/parallel.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace qzz::common {
namespace {

TEST(ParallelFor, NestedCallsRunInlineOnEveryThread)
{
    // Every outer block issues a nested parallelFor(), including the
    // blocks the calling thread drains itself; all of them must run
    // inline (no deadlock on the pool's job lock) and cover each
    // index exactly once.
    constexpr size_t kOuter = 16, kInner = 8;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallelFor(0, kOuter, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            parallelFor(0, kInner, 1, [&](size_t lo2, size_t hi2) {
                for (size_t j = lo2; j < hi2; ++j)
                    hits[i * kInner + j].fetch_add(1);
            });
    });
    for (size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1) << k;
}

} // namespace
} // namespace qzz::common
