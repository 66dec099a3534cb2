// Randomized stress suite for the serve-layer admission queue
// (serve::RequestQueue), targeting the edge cases a steady-state load test
// never visits: capacity-0 drain mode, close-while-popping, max_wait_us
// expiry with a single straggler request, and concurrent close/push races.
// All randomness is seeded and drawn from forked Rng streams (one per
// producer thread), so a failing schedule is replayable by seed. Runs under
// TSan in CI together with the other concurrency suites.

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/request_queue.h"
#include "sim/dispatcher.h"
#include "util/rng.h"

namespace dpdp::serve {
namespace {

using std::chrono::steady_clock;

double SecondsSince(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

DecisionRequest MakeRequest(const DispatchContext* ctx) {
  DecisionRequest r;
  r.context = ctx;
  r.enqueue_time = steady_clock::now();
  return r;
}

// ---------------------------------------------------------------------------
// max_wait_us expiry with a single straggler
// ---------------------------------------------------------------------------

TEST(RequestQueueStressTest, SingleStragglerFlushesAtMaxWaitNotMaxBatch) {
  // One lone request must not wait for a batch that will never fill: the
  // pop holds it until max_wait_us past its enqueue time, then flushes the
  // singleton. `start` is taken before the request is stamped, so the
  // lower bound follows from that contract however late this thread runs;
  // the upper bound only guards against waiting for max_batch peers.
  RequestQueue queue(8);
  const DispatchContext ctx;
  const auto start = steady_clock::now();
  ASSERT_EQ(queue.TryPush(MakeRequest(&ctx)), PushResult::kAdmitted);
  std::vector<DecisionRequest> batch;
  const int n = queue.PopBatch(&batch, /*max_batch=*/8,
                               /*max_wait_us=*/30'000);
  const double waited = SecondsSince(start);
  EXPECT_EQ(n, 1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].context, &ctx);
  EXPECT_GE(waited, 0.030);  // Held for the straggler window...
  EXPECT_LT(waited, 5.0);    // ...but flushed, not stuck on max_batch.
}

TEST(RequestQueueStressTest, LateArrivalCompletesBatchBeforeDeadline) {
  // The deadline belongs to the OLDEST request; a second arrival that
  // fills max_batch releases the batch immediately, long before the (here
  // deliberately huge) wait window expires.
  RequestQueue queue(8);
  const DispatchContext first_ctx, second_ctx;
  ASSERT_EQ(queue.TryPush(MakeRequest(&first_ctx)), PushResult::kAdmitted);
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_EQ(queue.TryPush(MakeRequest(&second_ctx)), PushResult::kAdmitted);
  });
  const auto start = steady_clock::now();
  std::vector<DecisionRequest> batch;
  const int n = queue.PopBatch(&batch, /*max_batch=*/2,
                               /*max_wait_us=*/10'000'000);
  const double waited = SecondsSince(start);
  late.join();
  EXPECT_EQ(n, 2);
  EXPECT_LT(waited, 5.0) << "flush waited out the deadline despite a full "
                            "batch";
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].context, &first_ctx);  // FIFO order preserved.
  EXPECT_EQ(batch[1].context, &second_ctx);
}

// ---------------------------------------------------------------------------
// Capacity-0 drain mode
// ---------------------------------------------------------------------------

TEST(RequestQueueStressTest, ZeroCapacityRejectsEveryPushEvenConcurrently) {
  // capacity == 0 is the drain-mode configuration: admission control sheds
  // everything. No push may ever slip through, no matter the interleaving.
  RequestQueue queue(0);
  constexpr int kThreads = 4;
  constexpr int kAttemptsEach = 200;
  const DispatchContext ctx;
  std::atomic<int> admitted{0};
  std::vector<std::thread> pushers;
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([&] {
      for (int i = 0; i < kAttemptsEach; ++i) {
        const PushResult result = queue.TryPush(MakeRequest(&ctx));
        EXPECT_EQ(result, PushResult::kFull);
        if (result == PushResult::kAdmitted) admitted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pushers) t.join();
  EXPECT_EQ(admitted.load(), 0);
  EXPECT_EQ(queue.size(), 0u);
  // A consumer on a drained-by-construction queue exits on close with 0,
  // exactly like a closed-and-drained normal queue.
  queue.Close();
  std::vector<DecisionRequest> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 8, 1000), 0);
}

// ---------------------------------------------------------------------------
// Close-while-popping
// ---------------------------------------------------------------------------

TEST(RequestQueueStressTest, CloseWakesBlockedConsumerOnEmptyQueue) {
  RequestQueue queue(8);
  std::atomic<int> popped{-1};
  std::thread consumer([&] {
    std::vector<DecisionRequest> batch;
    // Blocks on the empty queue; only Close can release it.
    popped.store(queue.PopBatch(&batch, 4, /*max_wait_us=*/10'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto close_time = steady_clock::now();
  queue.Close();
  consumer.join();
  EXPECT_EQ(popped.load(), 0);
  EXPECT_LT(SecondsSince(close_time), 5.0);
  // Closed queue: further pushes fail, further pops return 0 immediately.
  const DispatchContext ctx;
  EXPECT_EQ(queue.TryPush(MakeRequest(&ctx)), PushResult::kClosed);
  std::vector<DecisionRequest> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 4, 10'000'000), 0);
}

TEST(RequestQueueStressTest, CloseFlushesPartialBatchWithoutWaitingOut) {
  // A consumer holding a partial batch open for stragglers must flush it
  // on Close instead of sleeping out the (huge) wait window — otherwise
  // shutdown would strand admitted requests for max_wait_us.
  RequestQueue queue(8);
  const DispatchContext a, b;
  ASSERT_EQ(queue.TryPush(MakeRequest(&a)), PushResult::kAdmitted);
  ASSERT_EQ(queue.TryPush(MakeRequest(&b)), PushResult::kAdmitted);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    queue.Close();
  });
  const auto start = steady_clock::now();
  std::vector<DecisionRequest> batch;
  const int n = queue.PopBatch(&batch, /*max_batch=*/8,
                               /*max_wait_us=*/10'000'000);
  const double waited = SecondsSince(start);
  closer.join();
  EXPECT_EQ(n, 2);  // Close never drops admitted requests.
  EXPECT_LT(waited, 5.0);
}

// ---------------------------------------------------------------------------
// Randomized concurrent close/push races
// ---------------------------------------------------------------------------

/// One randomized round: kPushers producer threads (each with its own
/// forked Rng stream driving jittered push schedules), one consumer
/// draining batches of random size, and a closer that slams the queue shut
/// somewhere in the first half of the pushes. The conservation invariant:
/// every admitted request is popped exactly once (identified by its
/// distinct context pointer), nothing is popped twice, nothing admitted
/// after close.
void RandomizedRace(uint64_t seed, int capacity) {
  constexpr int kPushers = 4;
  constexpr int kOpsEach = 150;
  constexpr int kHalf = kPushers * kOpsEach / 2;
  const Rng base(seed);

  RequestQueue queue(capacity);
  // Distinct addresses so each request is uniquely identifiable.
  std::vector<DispatchContext> contexts(kPushers * kOpsEach);
  std::atomic<int> admitted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> attempted{0};

  std::vector<std::thread> pushers;
  for (int t = 0; t < kPushers; ++t) {
    pushers.emplace_back([&, t] {
      Rng stream = base.Fork(static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsEach; ++i) {
        if (stream.UniformInt(4) == 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(stream.UniformInt(120)));
        }
        // The closer acts within the first half of all pushes; holding
        // the second half until it has leaves pushes that must meet the
        // closed queue, however the threads are scheduled.
        if (attempted.load() >= kHalf) {
          while (!queue.closed()) std::this_thread::yield();
        }
        if (queue.TryPush(MakeRequest(&contexts[t * kOpsEach + i])) ==
            PushResult::kAdmitted) {
          admitted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
        attempted.fetch_add(1);
      }
    });
  }

  std::set<const DispatchContext*> popped;
  std::atomic<int> duplicate_pops{0};
  std::thread consumer([&] {
    Rng stream = base.Fork(1000);
    std::vector<DecisionRequest> batch;
    for (;;) {
      const int max_batch = 1 + stream.UniformInt(8);
      if (queue.PopBatch(&batch, max_batch,
                         /*max_wait_us=*/stream.UniformInt(300)) == 0) {
        return;  // Closed and drained.
      }
      for (const DecisionRequest& r : batch) {
        if (!popped.insert(r.context).second) duplicate_pops.fetch_add(1);
      }
    }
  });

  std::thread closer([&] {
    Rng stream = base.Fork(2000);
    const int close_after = 1 + stream.UniformInt(kHalf);
    while (attempted.load() < close_after) std::this_thread::yield();
    queue.Close();
  });

  for (std::thread& t : pushers) t.join();
  closer.join();
  consumer.join();

  EXPECT_EQ(admitted.load() + rejected.load(), kPushers * kOpsEach);
  EXPECT_EQ(duplicate_pops.load(), 0) << "seed " << seed;
  EXPECT_EQ(popped.size(), static_cast<size_t>(admitted.load()))
      << "seed " << seed << ": admitted requests lost or duplicated";
  EXPECT_EQ(queue.size(), 0u);
  // The second half of the pushes runs only after the close, so at least
  // one push must have hit the closed rejection path.
  EXPECT_GT(rejected.load(), 0) << "seed " << seed;
}

// ---------------------------------------------------------------------------
// kFull vs kClosed, Requeue, Reopen (the failover building blocks)
// ---------------------------------------------------------------------------

TEST(RequestQueueStressTest, FullAndClosedAreDistinctRejections) {
  // The router's failover depends on telling transient overload (shed
  // here) apart from a dead consumer (reroute elsewhere): kFull at
  // capacity, kClosed after Close — never conflated.
  RequestQueue queue(1);
  const DispatchContext a, b;
  ASSERT_EQ(queue.TryPush(MakeRequest(&a)), PushResult::kAdmitted);
  EXPECT_EQ(queue.TryPush(MakeRequest(&b)), PushResult::kFull);
  queue.Close();
  // Closed wins over full: the consumer is gone, reroute — don't shed.
  EXPECT_EQ(queue.TryPush(MakeRequest(&b)), PushResult::kClosed);
}

TEST(RequestQueueStressTest, RequeuePutsBatchBackInFrontInOrder) {
  // The crash path pops a batch, then puts it back: the requeued requests
  // must come out first and in their original FIFO order, ahead of
  // anything that arrived while the batch was in flight.
  RequestQueue queue(8);
  std::vector<DispatchContext> ctx(4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.TryPush(MakeRequest(&ctx[i])), PushResult::kAdmitted);
  }
  std::vector<DecisionRequest> batch;
  ASSERT_EQ(queue.PopBatch(&batch, 2, 0), 2);
  ASSERT_EQ(queue.TryPush(MakeRequest(&ctx[3])), PushResult::kAdmitted);
  queue.Requeue(&batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue.size(), 4u);
  std::vector<DecisionRequest> drained;
  ASSERT_EQ(queue.PopBatch(&drained, 8, 0), 4);
  EXPECT_EQ(drained[0].context, &ctx[0]);
  EXPECT_EQ(drained[1].context, &ctx[1]);
  EXPECT_EQ(drained[2].context, &ctx[2]);
  EXPECT_EQ(drained[3].context, &ctx[3]);
}

TEST(RequestQueueStressTest, RequeueIgnoresCapacityAndClosedFlag) {
  // Requeued work was already admitted once; neither the capacity bound
  // nor a concurrent Close may drop it.
  RequestQueue queue(1);
  const DispatchContext a;
  ASSERT_EQ(queue.TryPush(MakeRequest(&a)), PushResult::kAdmitted);
  std::vector<DecisionRequest> batch;
  ASSERT_EQ(queue.PopBatch(&batch, 1, 0), 1);
  queue.Close();
  queue.Requeue(&batch);  // Past capacity-1 bookkeeping AND the closed flag.
  EXPECT_EQ(queue.size(), 1u);
  std::vector<DecisionRequest> drained;
  EXPECT_EQ(queue.PopBatch(&drained, 8, 0), 1);
  EXPECT_EQ(drained[0].context, &a);
}

TEST(RequestQueueStressTest, ReopenRestoresAdmissionAfterDrain) {
  // The supervised-restart sequence: Close, drain, Reopen, and the queue
  // serves a fresh consumer as if nothing happened.
  RequestQueue queue(4);
  const DispatchContext a, b;
  ASSERT_EQ(queue.TryPush(MakeRequest(&a)), PushResult::kAdmitted);
  queue.Close();
  EXPECT_EQ(queue.TryPush(MakeRequest(&b)), PushResult::kClosed);
  std::vector<DecisionRequest> drained;
  while (queue.PopBatch(&drained, 4, 0) > 0) {
  }
  EXPECT_TRUE(queue.closed());
  queue.Reopen();
  EXPECT_FALSE(queue.closed());
  ASSERT_EQ(queue.TryPush(MakeRequest(&b)), PushResult::kAdmitted);
  std::vector<DecisionRequest> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 4, 0), 1);
  EXPECT_EQ(batch[0].context, &b);
}

TEST(RequestQueueStressTest, RandomizedClosePushRacesConserveRequests) {
  // Several seeds x capacities: tight queues exercise the full-rejection
  // path, roomy ones the close-rejection path. Each (seed, capacity) pair
  // is a deterministic schedule family — failures name their seed.
  for (const uint64_t seed : {20260807ull, 99ull, 4242ull}) {
    for (const int capacity : {2, 32}) {
      RandomizedRace(seed, capacity);
    }
  }
}

}  // namespace
}  // namespace dpdp::serve
