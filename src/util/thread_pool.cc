#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/env.h"
#include "util/status.h"

namespace dpdp {
namespace {

thread_local bool t_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain.
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // packaged_task: exceptions are captured into the future.
  }
}

bool ThreadPool::InWorkerThread() { return t_in_worker; }

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  DPDP_CHECK(fn != nullptr);
  if (n <= 0) return;
  if (InWorkerThread() || num_threads() <= 1 || n == 1) {
    // Nested (or degenerate) case: run inline on the calling thread.
    // Serial execution in index order — trivially deadlock-free and
    // bit-identical to any parallel schedule under the per-index
    // side-effect discipline documented in the header.
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  struct Shared {
    std::atomic<int> next{0};
    std::mutex err_mu;
    int err_index = -1;
    std::exception_ptr err;
  } shared;

  auto drive = [&shared, &fn, n] {
    for (;;) {
      const int i = shared.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared.err_mu);
        if (shared.err_index < 0 || i < shared.err_index) {
          shared.err_index = i;
          shared.err = std::current_exception();
        }
      }
    }
  };

  const int helpers = std::min(num_threads(), n) - 1;
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (int h = 0; h < helpers; ++h) futures.push_back(Submit(drive));
  drive();  // The caller participates, so progress never depends on workers.
  for (std::future<void>& f : futures) f.get();
  if (shared.err) std::rethrow_exception(shared.err);
}

int ConfiguredThreadCount() {
  const int n = EnvIntStrict("DPDP_THREADS", 0, 0, 1024);
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool* GlobalThreadPool() {
  static ThreadPool* pool = new ThreadPool(ConfiguredThreadCount());
  return pool;
}

}  // namespace dpdp
