/**
 * @file
 * Shared data-parallel work pool.
 *
 * One lazily-created process-wide pool of hardware_concurrency - 1
 * worker threads backs every parallelFor() in the process: the
 * simulator's idle-qubit layer split and Compiler::compileBatch()
 * both dispatch through it, so repeated calls never pay thread
 * creation again.
 *
 * Determinism contract: the range is pre-partitioned into fixed
 * contiguous blocks and every block is executed exactly once, so the
 * result of a parallelFor() whose blocks touch disjoint state is
 * identical to the sequential loop regardless of thread count or
 * interleaving.
 *
 * Nested calls (a parallelFor() issued from inside a block, on a
 * worker or on the thread that made the outer call) run inline on
 * the thread that issues them: the pool never deadlocks on itself.
 */

#ifndef QZZ_COMMON_PARALLEL_H
#define QZZ_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>

namespace qzz::common {

/** Block body: processes the half-open index range [lo, hi). */
using ParallelBlockFn = std::function<void(size_t lo, size_t hi)>;

/**
 * Total number of threads parallelFor() can use, pool workers plus
 * the calling thread (>= 1; 1 means every call runs inline).
 */
int parallelWorkers();

/**
 * Run @p fn over [begin, end) as contiguous blocks executed across
 * the shared pool; the calling thread participates and the call
 * returns only when every block has finished.
 *
 * Runs inline (single thread) when the range is shorter than
 * 2 * @p min_grain, when the pool has no workers, or when called
 * from inside another parallelFor() block.
 *
 * @param begin      first index.
 * @param end        one past the last index.
 * @param min_grain  smallest block size worth a dispatch; blocks are
 *                   never smaller (except the final remainder).
 * @param fn         block body; must only touch state disjoint
 *                   across blocks (callers get no synchronization
 *                   beyond the completion barrier).
 * @param max_threads cap on participating threads (0 = no cap).
 */
void parallelFor(size_t begin, size_t end, size_t min_grain,
                 const ParallelBlockFn &fn, int max_threads = 0);

} // namespace qzz::common

#endif // QZZ_COMMON_PARALLEL_H
