/**
 * @file
 * Host-parallel job execution for independent simulator runs.
 *
 * Every experiment this repository produces — benchmark sweeps, nucacheck's
 * thousands of schedule explorations, nucabench's per-lock runs — is a set
 * of *independent, deterministic, single-host-threaded* SimMachine runs. The
 * Executor saturates the host with them: a fixed-size pool of worker
 * threads claims jobs from a shared batch with one atomic fetch-add per
 * claim (no queue lock on the hot path), results land by submission index
 * regardless of completion order, and the first failure (by submission
 * index, not completion time) cancels the jobs behind it and is rethrown
 * to the caller.
 *
 * The determinism contract: because every job is a pure function of its
 * captured config (the simulator shares no mutable state between machines),
 * running a batch at any jobs level — including jobs=1, which executes
 * inline on the calling thread with no worker handoff at all — produces
 * bit-identical results in the same order. Tests pin this via
 * BenchResult::acquisition_order_hash (tests/exec_test.cpp).
 */
#ifndef NUCALOCK_EXEC_EXECUTOR_HPP
#define NUCALOCK_EXEC_EXECUTOR_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nucalock::exec {

/** Host hardware concurrency, never less than 1. */
int hardware_jobs();

/**
 * The default worker count: the NUCALOCK_JOBS environment variable when
 * set (and >= 1), otherwise hardware_jobs(). Every --jobs=N flag defaults
 * to this.
 */
int default_jobs();

/**
 * A fixed-size worker pool executing batches of independent jobs.
 *
 * Usage is batch-at-a-time from one controlling thread: run_batch() (or
 * map()) dispatches n jobs, participates in the work itself, and returns
 * when every job has run, been skipped, or failed. The pool threads are
 * created once and reused across batches; jobs=1 creates no threads.
 *
 * Failure semantics: a job that throws records its exception; jobs with a
 * *higher* submission index that have not started yet are skipped
 * (cancellation), while lower-indexed jobs always run to completion so the
 * propagated failure is deterministic — run_batch() rethrows the exception
 * of the lowest failing index, exactly what a sequential loop would have
 * thrown first.
 */
class Executor
{
  public:
    /** @param jobs worker count; <= 0 means default_jobs(). */
    explicit Executor(int jobs = 0);
    ~Executor();

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    int jobs() const { return jobs_; }

    /**
     * Run @p fn(0) .. @p fn(n-1) across the pool (the calling thread
     * participates). Returns when the batch is complete; rethrows the
     * lowest-index failure, if any. Not reentrant: one batch at a time.
     */
    void run_batch(std::size_t n, const std::function<void(std::size_t)>& fn);

    /**
     * Convenience: `out[i] = fn(i)` for i in [0, n), results in submission
     * order. T must be default-constructible.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t n, Fn&& fn)
    {
        std::vector<T> out(n);
        run_batch(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    /** One dispatched batch. Heap-allocated and shared with the workers so
     *  a late-waking worker never touches a dead stack frame. */
    struct Batch
    {
        std::size_t n = 0;
        const std::function<void(std::size_t)>* fn = nullptr;
        /** Next unclaimed job index (the lock-free-ish queue head). */
        std::atomic<std::size_t> next{0};
        /** Jobs finished (run, skipped, or failed). */
        std::atomic<std::size_t> finished{0};
        /** Lowest failing index so far (SIZE_MAX = none). */
        std::atomic<std::size_t> first_error;
        std::vector<std::exception_ptr> errors;
    };

    void worker_loop();
    void drain(Batch& batch);

    int jobs_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cv_dispatch_; // wakes workers on a new batch
    std::condition_variable cv_done_;     // wakes run_batch on completion
    std::shared_ptr<Batch> batch_;        // current batch (null when idle)
    std::uint64_t generation_ = 0;        // bumped per dispatched batch
    bool stopping_ = false;
    bool batch_active_ = false; // reentrancy tripwire
};

} // namespace nucalock::exec

#endif // NUCALOCK_EXEC_EXECUTOR_HPP
