#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace qzz::common {

namespace {

/** Set while this thread runs blocks of a job (as a pool worker or
 *  as the calling thread), so nested parallelFor() calls degrade to
 *  inline execution instead of deadlocking on the job lock. */
thread_local bool in_pool_worker = false;

/**
 * The process-wide pool.  One job at a time: parallelFor() publishes
 * a block list, workers and the caller race on an atomic cursor, and
 * the caller waits for the in-flight count to drain.  Serializing
 * jobs keeps the pool trivially correct; concurrent parallelFor()
 * calls from different threads just queue on the job mutex.
 */
class Pool
{
  public:
    Pool()
    {
        const unsigned hw = std::thread::hardware_concurrency();
        const int workers = hw > 1 ? int(hw) - 1 : 0;
        threads_.reserve(size_t(workers));
        for (int i = 0; i < workers; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    int totalThreads() const { return int(threads_.size()) + 1; }

    void
    run(size_t begin, size_t end, size_t grain,
        const ParallelBlockFn &fn, int max_threads)
    {
        // One job at a time; later callers wait here.
        std::lock_guard<std::mutex> job_lock(job_m_);
        {
            std::lock_guard<std::mutex> lock(m_);
            begin_ = begin;
            end_ = end;
            grain_ = grain;
            fn_ = &fn;
            cursor_.store(begin, std::memory_order_relaxed);
            active_.store(0, std::memory_order_relaxed);
            // Workers beyond the cap see no ticket and go back to
            // sleep without touching the job.
            tickets_.store(max_threads > 0 ? max_threads - 1
                                           : int(threads_.size()),
                           std::memory_order_relaxed);
            ++generation_;
        }
        wake_.notify_all();
        in_pool_worker = true;
        drainBlocks(fn);
        in_pool_worker = false;
        // All blocks are claimed; wait for stragglers still running
        // their final block.
        std::unique_lock<std::mutex> lock(m_);
        done_.wait(lock, [this] {
            return active_.load(std::memory_order_acquire) == 0;
        });
        fn_ = nullptr;
    }

  private:
    void
    drainBlocks(const ParallelBlockFn &fn)
    {
        for (;;) {
            const size_t lo =
                cursor_.fetch_add(grain_, std::memory_order_relaxed);
            if (lo >= end_)
                return;
            const size_t hi = std::min(end_, lo + grain_);
            fn(lo, hi);
        }
    }

    void
    workerLoop()
    {
        in_pool_worker = true;
        uint64_t seen = 0;
        for (;;) {
            const ParallelBlockFn *fn = nullptr;
            {
                std::unique_lock<std::mutex> lock(m_);
                wake_.wait(lock, [&] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
                if (tickets_.fetch_sub(1, std::memory_order_relaxed) <=
                    0)
                    continue; // over the caller's thread cap
                fn = fn_;
                if (fn == nullptr)
                    continue; // job already fully drained
                active_.fetch_add(1, std::memory_order_acq_rel);
            }
            drainBlocks(*fn);
            if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(m_);
                done_.notify_all();
            }
        }
    }

    std::vector<std::thread> threads_;
    std::mutex job_m_; ///< serializes whole jobs
    std::mutex m_;     ///< guards the job fields below
    std::condition_variable wake_;
    std::condition_variable done_;
    bool stop_ = false;
    uint64_t generation_ = 0;
    size_t begin_ = 0, end_ = 0, grain_ = 1;
    const ParallelBlockFn *fn_ = nullptr;
    std::atomic<size_t> cursor_{0};
    std::atomic<int> active_{0};
    std::atomic<int> tickets_{0};
};

Pool &
pool()
{
    static Pool p;
    return p;
}

} // namespace

int
parallelWorkers()
{
    return pool().totalThreads();
}

void
parallelFor(size_t begin, size_t end, size_t min_grain,
            const ParallelBlockFn &fn, int max_threads)
{
    if (begin >= end)
        return;
    const size_t count = end - begin;
    if (min_grain == 0)
        min_grain = 1;
    const bool inline_only =
        in_pool_worker || count < 2 * min_grain ||
        parallelWorkers() <= 1 || max_threads == 1;
    if (inline_only) {
        fn(begin, end);
        return;
    }
    pool().run(begin, end, min_grain, fn, max_threads);
}

} // namespace qzz::common
