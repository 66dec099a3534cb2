#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace dpdp {
namespace {

TEST(ThreadPoolTest, StartsAndStopsAcrossSizes) {
  for (int n : {1, 2, 4, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
  // Non-positive requests clamp to one worker instead of misbehaving.
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // No explicit wait: the destructor must run everything already queued.
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);

  std::future<std::vector<int>> g =
      pool.Submit([] { return std::vector<int>{1, 2, 3}; });
  EXPECT_EQ(g.get(), (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task and keeps serving.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    constexpr int kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&hits](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](int i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Several indices throw; the contract is that the *lowest* throwing
  // index wins, so the surfaced error is deterministic.
  try {
    pool.ParallelFor(100, [](int i) {
      if (i % 10 == 3) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  // A task that submits (and waits on) another task would classically
  // deadlock a 1-thread pool; the inline-when-on-worker rule prevents it.
  ThreadPool pool(1);
  std::future<int> f = pool.Submit([&pool] {
    EXPECT_TRUE(ThreadPool::InWorkerThread());
    return pool.Submit([] { return 21; }).get() * 2;
  });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](int) {
    // Nested loops run serially on the calling worker, so this must not
    // deadlock no matter how many tasks are already in flight.
    pool.ParallelFor(8, [&total](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, MainThreadIsNotAWorker) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  EXPECT_TRUE(pool.Submit([] { return ThreadPool::InWorkerThread(); }).get());
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, StressManySmallTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 10000;
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, ConfiguredThreadCountReadsEnv) {
  ASSERT_EQ(setenv("DPDP_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ConfiguredThreadCount(), 3);
  // 0 falls back to hardware detection (>= 1).
  ASSERT_EQ(setenv("DPDP_THREADS", "0", 1), 0);
  EXPECT_GE(ConfiguredThreadCount(), 1);
  ASSERT_EQ(unsetenv("DPDP_THREADS"), 0);
  EXPECT_GE(ConfiguredThreadCount(), 1);
}

TEST(ThreadPoolTest, GlobalPoolIsSingletonAndUsable) {
  ThreadPool* pool = GlobalThreadPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool, GlobalThreadPool());
  EXPECT_GE(pool->num_threads(), 1);
  EXPECT_EQ(pool->Submit([] { return 5; }).get(), 5);
}

}  // namespace
}  // namespace dpdp
