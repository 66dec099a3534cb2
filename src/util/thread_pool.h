#ifndef DPDP_UTIL_THREAD_POOL_H_
#define DPDP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace dpdp {

/// Fixed-size work-queue thread pool used to parallelize the
/// embarrassingly-parallel loops of the experiment stack (per-seed DRL
/// runs, per-method bench sweeps, minibatch gradient accumulation).
///
/// Determinism contract: the pool schedules *tasks*, never randomness.
/// Every parallel task must derive its own RNG stream from
/// (base_seed, task_index) — see Rng::Fork(task_id) — and write results
/// into a slot owned exclusively by its index. Under that discipline the
/// results are bit-identical for every worker count, including 1.
///
/// Nested use: a task running on a pool worker that calls Submit or
/// ParallelFor (on any pool) executes the work inline on the calling
/// worker instead of enqueueing it. This keeps nested fan-out
/// deadlock-free by construction (no worker ever blocks on work that
/// only another occupied worker could run) and costs nothing for the
/// outermost level, which still spreads across the fleet of workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains nothing: pending tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Schedules `f()` and returns its future. Exceptions thrown by `f`
  /// propagate through the future. Called from a pool worker, `f` runs
  /// inline (see class comment).
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    if (InWorkerThread()) {
      (*task)();
      return future;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs `fn(i)` for every i in [0, n), blocking until all complete.
  /// The calling thread participates, so the call finishes even with a
  /// single worker. Iterations are claimed dynamically (atomic counter);
  /// side effects must therefore be per-index (fn(i) writing results[i]
  /// is safe, accumulating into a shared sum is not). If any iteration
  /// throws, the exception of the lowest-index failing iteration is
  /// rethrown after all claimed iterations finish. Called from a pool
  /// worker, the loop runs serially inline.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// True when the calling thread is a worker of any ThreadPool.
  static bool InWorkerThread();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Worker count for the process-wide pool: the DPDP_THREADS environment
/// variable (1-1024, read strictly) when set, else hardware_concurrency,
/// which 0 also selects.
int ConfiguredThreadCount();

/// Lazily-constructed process-wide pool sized by ConfiguredThreadCount()
/// at first use (set DPDP_THREADS before the first parallel call; it is
/// read once). Never destroyed — safe to use from static contexts.
ThreadPool* GlobalThreadPool();

}  // namespace dpdp

#endif  // DPDP_UTIL_THREAD_POOL_H_
