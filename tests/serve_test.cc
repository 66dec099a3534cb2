#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/greedy_baselines.h"
#include "obs/metrics.h"
#include "rl/checkpoint.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "serve/dispatch_service.h"
#include "serve/load_generator.h"
#include "serve/model_server.h"
#include "serve/service_dispatcher.h"
#include "sim/environment.h"
#include "test_util.h"

namespace dpdp::serve {
namespace {

namespace fs = std::filesystem;
using dpdp::testing::ExpectSameEpisode;
using dpdp::testing::LocalChoice;
using dpdp::testing::MakeOrder;
using dpdp::testing::MakeTestInstance;

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

/// A day with enough demand to exercise many decisions on the line network.
std::vector<Order> BusyOrders(int n) {
  std::vector<Order> orders;
  for (int i = 0; i < n; ++i) {
    const int pickup = 1 + (i % 2);    // F1 / F2
    const int delivery = 3 + (i % 2);  // F3 / F4
    orders.push_back(MakeOrder(i, pickup, delivery, 5.0 + (i % 3),
                               10.0 * i, 600.0 + 10.0 * i));
  }
  return orders;
}

/// A hand-built decision context (no simulator) for request-level tests.
/// Vehicle v's incremental length is 3 + v, so the greedy fallback picks 0.
struct FixedContext {
  explicit FixedContext(const Instance* inst, int num_vehicles = 4) {
    context.instance = inst;
    context.order = &inst->orders[0];
    context.now = 100.0;
    context.time_interval = 10;
    context.options.resize(num_vehicles);
    for (int v = 0; v < num_vehicles; ++v) {
      VehicleOption& opt = context.options[v];
      opt.vehicle = v;
      opt.feasible = true;
      opt.used = (v % 2) != 0;
      opt.num_assigned_orders = v;
      opt.current_length = 5.0 + v;
      opt.new_length = 8.0 + 2.0 * v;
      opt.incremental_length = 3.0 + v;
      opt.st_score = 0.0;
      opt.position = {static_cast<double>(v), 0.0};
    }
    context.num_feasible = num_vehicles;
  }
  DispatchContext context;
};

void ExpectSameWeights(const std::vector<nn::Matrix>& a,
                       const std::vector<nn::Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows(), b[i].rows());
    ASSERT_EQ(a[i].cols(), b[i].cols());
    for (int r = 0; r < a[i].rows(); ++r) {
      for (int c = 0; c < a[i].cols(); ++c) {
        EXPECT_EQ(a[i](r, c), b[i](r, c)) << "param " << i << " (" << r
                                          << ", " << c << ")";
      }
    }
  }
}

/// Unique scratch directory under the system temp dir.
fs::path MakeScratchDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dpdp_serve_test_" + tag + "_" +
       std::to_string(static_cast<uint64_t>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// RequestQueue: flush policy + admission bound
// ---------------------------------------------------------------------------

DecisionRequest MakeRequest(const DispatchContext* ctx) {
  DecisionRequest r;
  r.context = ctx;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

TEST(RequestQueueTest, FlushesImmediatelyAtMaxBatch) {
  RequestQueue queue(16);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);
  }

  // max_wait is 10 s; a full batch must flush without waiting it out.
  std::vector<DecisionRequest> out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.PopBatch(&out, /*max_batch=*/3, /*max_wait_us=*/10'000'000),
            3);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0) << "full batch waited for the max_wait deadline";
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueueTest, FlushesPartialBatchAfterMaxWait) {
  RequestQueue queue(16);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);

  // Only 2 of max_batch 8 present: the pop must return them once the
  // oldest request ages past max_wait instead of blocking for more.
  std::vector<DecisionRequest> out;
  EXPECT_EQ(queue.PopBatch(&out, /*max_batch=*/8, /*max_wait_us=*/2000), 2);
}

TEST(RequestQueueTest, LatePushJoinsWaitingBatch) {
  RequestQueue queue(16);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);
  std::thread pusher([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    queue.TryPush(MakeRequest(nullptr));
  });
  // Generous max_wait: the second request lands inside the window and the
  // pop returns both coalesced.
  std::vector<DecisionRequest> out;
  EXPECT_EQ(queue.PopBatch(&out, /*max_batch=*/2, /*max_wait_us=*/2'000'000),
            2);
  pusher.join();
}

TEST(RequestQueueTest, BoundedAdmissionRejectsWithoutConsuming) {
  RequestQueue queue(2);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);

  DecisionRequest overflow = MakeRequest(nullptr);
  std::future<ServeReply> fut = overflow.reply.get_future();
  EXPECT_EQ(queue.TryPush(std::move(overflow)), PushResult::kFull);

  // The rejected request still owns its promise — the shed path can answer.
  ServeReply reply;
  reply.vehicle = 7;
  reply.shed = true;
  overflow.reply.set_value(reply);
  EXPECT_EQ(fut.get().vehicle, 7);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueueTest, ZeroCapacityShedsEverything) {
  RequestQueue queue(0);
  EXPECT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kFull);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueueTest, CloseDrainsBacklogThenReturnsZero) {
  RequestQueue queue(8);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);
  ASSERT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kAdmitted);
  queue.Close();
  EXPECT_EQ(queue.TryPush(MakeRequest(nullptr)), PushResult::kClosed);

  // Close never drops admitted requests: they drain in batches, then the
  // consumer sees 0 (its exit signal).
  std::vector<DecisionRequest> out;
  EXPECT_EQ(queue.PopBatch(&out, /*max_batch=*/2, /*max_wait_us=*/100), 2);
  EXPECT_EQ(queue.PopBatch(&out, /*max_batch=*/2, /*max_wait_us=*/100), 1);
  EXPECT_EQ(queue.PopBatch(&out, /*max_batch=*/2, /*max_wait_us=*/100), 0);
}

// ---------------------------------------------------------------------------
// Served decisions == local-agent decisions (the core invariant)
// ---------------------------------------------------------------------------

void RunServedMatchesLocal(const AgentConfig& config) {
  const Instance inst = MakeTestInstance(BusyOrders(12), 3);
  SimulatorConfig sim_config;
  sim_config.record_plan = true;

  DqnFleetAgent agent(config, "local");
  Environment local_sim(&inst, sim_config);
  const EpisodeResult local = RunEpisode(&local_sim, &agent);
  ASSERT_GT(local.num_decisions, 0);

  ModelServer models(config);
  ServeConfig serve_config;
  serve_config.max_batch = 4;
  serve_config.max_wait_us = 200;
  DispatchService service(serve_config, &models);
  ServiceDispatcher dispatcher(&service);
  Environment served_sim(&inst, sim_config);
  const EpisodeResult served = RunEpisode(&served_sim, &dispatcher);
  service.Stop();

  ExpectSameEpisode(local, served);
  EXPECT_TRUE(dpdp::testing::CheckEpisodeFeasible(inst, served));
  EXPECT_EQ(service.sheds(), 0u);
  EXPECT_EQ(service.degraded(), 0u);
  EXPECT_EQ(service.requests(),
            static_cast<uint64_t>(served.num_decisions));
  EXPECT_GT(service.batches(), 0u);
}

TEST(DispatchServiceTest, ServedEpisodeMatchesLocalAgentMlp) {
  RunServedMatchesLocal(MakeStDdqnConfig(7));
}

TEST(DispatchServiceTest, ServedEpisodeMatchesLocalAgentGraph) {
  RunServedMatchesLocal(MakeStDdgnConfig(7));
}

TEST(DispatchServiceTest, FourClientsBitwiseMatchSingleClient) {
  const Instance inst = MakeTestInstance(BusyOrders(10), 3);
  const AgentConfig config = MakeStDdqnConfig(3);
  LoadOptions options;
  options.sim.record_plan = true;

  ModelServer models(config);
  ServeConfig serve_config;
  serve_config.max_batch = 8;
  serve_config.max_wait_us = 300;

  LoadReport solo;
  {
    DispatchService service(serve_config, &models);
    solo = RunServedLoad({&inst}, &service, options);
  }
  ASSERT_EQ(solo.clients.size(), 1u);
  ASSERT_EQ(solo.clients[0].episodes.size(), 1u);
  ASSERT_GT(solo.total_decisions, 0);

  // Four concurrent clients on copies of the same campus: whatever batch
  // interleavings occur, every client's episode must equal the solo run.
  LoadReport quad;
  {
    DispatchService service(serve_config, &models);
    quad = RunServedLoad({&inst, &inst, &inst, &inst}, &service, options);
    EXPECT_EQ(service.sheds(), 0u);
  }
  ASSERT_EQ(quad.clients.size(), 4u);
  for (const ClientOutcome& client : quad.clients) {
    ASSERT_EQ(client.episodes.size(), 1u);
    ExpectSameEpisode(solo.clients[0].episodes[0], client.episodes[0]);
    EXPECT_EQ(client.sheds, 0);
  }
  EXPECT_EQ(quad.total_decisions, 4 * solo.total_decisions);
}

// Fig. 7's shape at test size: concurrent campuses whose fleets mostly idle
// at one depot. Idle vehicles give bit-identical rows, so the row classes
// fold rows within an item, and across the stacked items of campuses whose
// current orders share a factory pair and a time interval. Each campus
// walks the factory pairs at its own stride, so the campuses' busy
// vehicles differ and an item that read another item's rows would change
// its decisions. Every campus must decide exactly as its local agent does.
void RunServedMatchesLocalAtScale(const AgentConfig& config) {
  constexpr int kCampuses = 4;
  constexpr int kVehicles = 40;
  std::vector<Instance> campuses;
  for (int c = 0; c < kCampuses; ++c) {
    std::vector<Order> orders;
    for (int i = 0; i < 16; ++i) {
      const int pickup = 1 + ((i + c) % 2);        // F1 / F2
      const int delivery = 3 + ((i / (c + 1)) % 2);  // F3 / F4
      orders.push_back(MakeOrder(i, pickup, delivery, 5.0 + (i % 3),
                                 10.0 * i, 600.0 + 10.0 * i));
    }
    campuses.push_back(MakeTestInstance(std::move(orders), kVehicles));
    campuses.back().name = "idle-depot-" + std::to_string(c);
  }
  std::vector<const Instance*> instances;
  for (const Instance& campus : campuses) instances.push_back(&campus);
  LoadOptions options;
  options.sim.record_plan = true;
  const LoadReport local = RunLocalAgentsLoad(instances, config, options);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* rows_requested = registry.GetCounter("nn.rows_requested");
  obs::Counter* rows_evaluated = registry.GetCounter("nn.rows_evaluated");
  const uint64_t requested_before = rows_requested->Value();
  const uint64_t evaluated_before = rows_evaluated->Value();
  ModelServer models(config);
  ServeConfig serve_config;
  serve_config.max_batch = kCampuses;
  serve_config.max_wait_us = 5000;
  DispatchService service(serve_config, &models);
  const LoadReport served = RunServedLoad(instances, &service, options);
  service.Stop();
  const uint64_t requested = rows_requested->Value() - requested_before;
  const uint64_t evaluated = rows_evaluated->Value() - evaluated_before;

  ASSERT_EQ(served.clients.size(), static_cast<size_t>(kCampuses));
  for (int c = 0; c < kCampuses; ++c) {
    SCOPED_TRACE("campus " + std::to_string(c));
    ASSERT_EQ(served.clients[c].episodes.size(), 1u);
    ASSERT_GT(local.clients[c].episodes[0].num_decisions, 0);
    ExpectSameEpisode(local.clients[c].episodes[0],
                      served.clients[c].episodes[0]);
    EXPECT_TRUE(dpdp::testing::CheckEpisodeFeasible(
        campuses[c], served.clients[c].episodes[0]));
  }
  EXPECT_EQ(service.sheds(), 0u);
  EXPECT_EQ(service.requests(),
            static_cast<uint64_t>(served.total_decisions));
  EXPECT_LT(service.batches(), service.requests())
      << "no batch stacked more than one item";
  EXPECT_GE(requested, static_cast<uint64_t>(served.total_decisions));
  EXPECT_LT(evaluated, requested) << "no rows folded into row classes";
}

TEST(DispatchServiceTest, ServedMatchesLocalAtScaleMlp) {
  RunServedMatchesLocalAtScale(MakeStDdqnConfig(31));
}

TEST(DispatchServiceTest, ServedMatchesLocalAtScaleGraph) {
  RunServedMatchesLocalAtScale(MakeStDdgnConfig(31));
}

// ---------------------------------------------------------------------------
// Load shedding
// ---------------------------------------------------------------------------

TEST(DispatchServiceTest, ShedPathMatchesGreedyInsertionBaseline) {
  const Instance inst = MakeTestInstance(BusyOrders(8), 3);
  SimulatorConfig sim_config;
  sim_config.record_plan = true;

  // Drain mode: capacity 0 sheds every request, deterministically forcing
  // the fallback path for a whole episode.
  const AgentConfig config = MakeStDdqnConfig(5);
  ModelServer models(config);
  ServeConfig serve_config;
  serve_config.queue_capacity = 0;
  DispatchService service(serve_config, &models);
  ServiceDispatcher dispatcher(&service, "shed-client");
  Environment served_sim(&inst, sim_config);
  const EpisodeResult shed = RunEpisode(&served_sim, &dispatcher);
  service.Stop();

  ASSERT_GT(shed.num_decisions, 0);
  EXPECT_EQ(service.sheds(), service.requests());
  EXPECT_EQ(dispatcher.sheds(), shed.num_decisions);
  EXPECT_EQ(service.batches(), 0u);

  // Shed decisions are exactly Baseline 1 (min incremental length), so the
  // whole degraded episode equals the baseline's — and stays feasible.
  MinIncrementalLengthDispatcher baseline;
  Environment baseline_sim(&inst, sim_config);
  const EpisodeResult expected = RunEpisode(&baseline_sim, &baseline);
  ExpectSameEpisode(expected, shed);
  EXPECT_TRUE(dpdp::testing::CheckEpisodeFeasible(inst, shed));
}

TEST(DispatchServiceTest, DegradedModelOutputIsReportedNotSubstituted) {
  const AgentConfig config = MakeStDdqnConfig(9);
  const Instance inst = MakeTestInstance(BusyOrders(2), 4);
  FixedContext fixed(&inst);

  ModelServer models(config);
  // Poison the published weights: NaNs in the output head make every Q
  // non-finite, which the service must surface as vehicle -1 (degraded)
  // rather than silently substituting greedy — that's the caller's
  // fallback so degradation counts match a local-agent run. (The head is
  // poisoned rather than the input layer because rectifiers can squash a
  // lone upstream NaN back to 0.)
  DqnFleetAgent agent(config, "poison-source");
  auto poisoned = std::make_shared<ModelSnapshot>();
  poisoned->seq = 1;
  poisoned->source = "poisoned";
  poisoned->weights = agent.ExportPolicyWeights();
  ASSERT_FALSE(poisoned->weights.empty());
  for (size_t i = poisoned->weights.size() - 2; i < poisoned->weights.size();
       ++i) {
    nn::Matrix& w = poisoned->weights[i];
    for (int r = 0; r < w.rows(); ++r) {
      for (int c = 0; c < w.cols(); ++c) {
        w(r, c) = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  ASSERT_TRUE(models.Publish(poisoned));

  DispatchService service(ServeConfig{}, &models);
  const ServeReply reply = service.Submit(fixed.context).get();
  service.Stop();

  EXPECT_EQ(reply.vehicle, -1);
  EXPECT_TRUE(reply.degraded);
  EXPECT_FALSE(reply.shed);
  EXPECT_EQ(reply.model_seq, 1u);
  EXPECT_EQ(service.degraded(), 1u);
}

// ---------------------------------------------------------------------------
// Hot swap under concurrent load
// ---------------------------------------------------------------------------

TEST(HotSwapTest, SwapUnderConcurrentRequestsNeverTearsOrStalls) {
  AgentConfig config_a = MakeStDdqnConfig(21);
  AgentConfig config_b = config_a;
  config_b.seed = 4242;  // Same architecture, different weights.

  const Instance inst = MakeTestInstance(BusyOrders(2), 4);
  const FixedContext fixed(&inst);

  // Ground truth per weight set, computed by local agents up front.
  const int choice_a = LocalChoice(config_a, fixed.context);
  const int choice_b = LocalChoice(config_b, fixed.context);
  ASSERT_GE(choice_a, 0);
  ASSERT_GE(choice_b, 0);

  ModelServer models(config_a);
  const std::weak_ptr<const ModelSnapshot> init_snapshot = models.Current();

  const std::vector<nn::Matrix> weights_a =
      DqnFleetAgent(config_a, "a").ExportPolicyWeights();
  const std::vector<nn::Matrix> weights_b =
      DqnFleetAgent(config_b, "b").ExportPolicyWeights();

  ServeConfig serve_config;
  serve_config.max_batch = 8;
  serve_config.max_wait_us = 100;
  DispatchService service(serve_config, &models);

  // Requesters hammer the service while the swapper publishes alternating
  // snapshots with rising seq. Every reply must match the ground-truth
  // choice OF THE SNAPSHOT THAT SCORED IT (reply.model_seq): a torn weight
  // sync or a batch evaluated on half-swapped weights shows up as a reply
  // whose vehicle matches neither.
  constexpr int kRequesters = 4;
  constexpr int kRequestsEach = 40;
  constexpr int kSwaps = 30;
  std::atomic<int> mismatches{0};
  std::atomic<int> unanswered{0};

  std::vector<std::thread> requesters;
  requesters.reserve(kRequesters);
  for (int t = 0; t < kRequesters; ++t) {
    requesters.emplace_back([&] {
      for (int i = 0; i < kRequestsEach; ++i) {
        std::future<ServeReply> fut = service.Submit(fixed.context);
        if (fut.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          unanswered.fetch_add(1);
          return;  // Abandoning the future would block in ~future anyway.
        }
        const ServeReply reply = fut.get();
        const int expected =
            (reply.model_seq % 2 == 0) ? choice_a : choice_b;
        if (reply.shed) continue;  // Shed replies bypass the model.
        if (reply.vehicle != expected) mismatches.fetch_add(1);
      }
    });
  }
  std::thread swapper([&] {
    for (int i = 1; i <= kSwaps; ++i) {
      auto snap = std::make_shared<ModelSnapshot>();
      snap->seq = static_cast<uint64_t>(i);
      snap->source = "swap";
      snap->weights = (i % 2 == 0) ? weights_a : weights_b;
      models.Publish(std::move(snap));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  for (std::thread& t : requesters) t.join();
  swapper.join();

  EXPECT_EQ(unanswered.load(), 0) << "hot swap stalled in-flight requests";
  EXPECT_EQ(mismatches.load(), 0) << "a reply matched neither snapshot's "
                                     "ground truth (torn weight sync)";

  // One more request after the dust settles: it must be scored by the
  // final snapshot (Publish happened-before), proving the service loop
  // really does pick up swaps (not just tolerate them).
  const ServeReply last = service.Submit(fixed.context).get();
  EXPECT_EQ(last.model_seq, static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(last.vehicle, kSwaps % 2 == 0 ? choice_a : choice_b);
  EXPECT_GE(service.swaps_applied(), 1u);
  service.Stop();

  // Retirement: nothing references the seq-0 init snapshot anymore, so its
  // storage must be gone — refcount retirement, not a leak or a cache.
  EXPECT_TRUE(init_snapshot.expired());
}

// ---------------------------------------------------------------------------
// ModelServer: checkpoint directory watching
// ---------------------------------------------------------------------------

TEST(ModelServerTest, InitSnapshotMatchesFreshAgent) {
  const AgentConfig config = MakeStDdqnConfig(13);
  ModelServer models(config);
  const std::shared_ptr<const ModelSnapshot> snap = models.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->seq, 0u);
  EXPECT_EQ(snap->source, "init");
  DqnFleetAgent agent(config, "fresh");
  ExpectSameWeights(snap->weights, agent.ExportPolicyWeights());
}

TEST(ModelServerTest, PublishRejectsStaleSeq) {
  ModelServer models(MakeStDdqnConfig(13));
  auto newer = std::make_shared<ModelSnapshot>();
  newer->seq = 5;
  newer->weights = models.Current()->weights;
  ASSERT_TRUE(models.Publish(newer));

  auto stale = std::make_shared<ModelSnapshot>();
  stale->seq = 5;  // Equal is stale too: strictly-newer wins.
  stale->weights = newer->weights;
  EXPECT_FALSE(models.Publish(stale));
  EXPECT_EQ(models.current_seq(), 5u);
}

TEST(ModelServerTest, PollLoadsNewestBySeqAndSkipsStale) {
  const fs::path dir = MakeScratchDir("poll");
  const AgentConfig config = MakeStDdqnConfig(17);
  AgentConfig config_b = config;
  config_b.seed = 99;

  DqnFleetAgent agent_a(config, "a");
  DqnFleetAgent agent_b(config_b, "b");
  ASSERT_TRUE(SaveCheckpoint((dir / "a.ckpt").string(), 5, agent_a).ok());
  ASSERT_TRUE(
      SaveCheckpoint((dir / "b.ckpt").string(), 9, agent_b, 9).ok());

  ModelServer models(config);
  EXPECT_EQ(models.PollOnce(dir.string()), 1);
  EXPECT_EQ(models.current_seq(), 9u);
  // The published weights are agent_b's, proving seq (not filename order
  // or mtime) picked the winner.
  ExpectSameWeights(models.Current()->weights, agent_b.ExportPolicyWeights());

  // Re-poll with nothing new: no churn.
  EXPECT_EQ(models.PollOnce(dir.string()), 0);

  // An older checkpoint re-appearing (restore from backup) must not roll
  // the serving model back.
  ASSERT_TRUE(
      SaveCheckpoint((dir / "restored.ckpt").string(), 3, agent_a, 3).ok());
  EXPECT_EQ(models.PollOnce(dir.string()), 0);
  EXPECT_EQ(models.current_seq(), 9u);

  fs::remove_all(dir);
}

TEST(ModelServerTest, PollSkipsCorruptAndStagingFiles) {
  const fs::path dir = MakeScratchDir("corrupt");
  const AgentConfig config = MakeStDdqnConfig(19);
  DqnFleetAgent agent(config, "a");
  ASSERT_TRUE(SaveCheckpoint((dir / "good.ckpt").string(), 4, agent, 4).ok());

  {
    // Torn file: valid prefix, truncated body — must fail its CRC probe.
    std::ifstream in(dir / "good.ckpt", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream torn(dir / "torn.ckpt", std::ios::binary);
    torn.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
  }
  {
    std::ofstream junk(dir / "junk.ckpt", std::ios::binary);
    junk << "not a checkpoint at all";
  }
  {
    // In-progress atomic save: .tmp staging files are never candidates,
    // even with a huge would-be seq inside.
    ASSERT_TRUE(
        SaveCheckpoint((dir / "staging.ckpt").string(), 50, agent, 50).ok());
    fs::rename(dir / "staging.ckpt", dir / "staging.ckpt.tmp");
  }

  ModelServer models(config);
  EXPECT_EQ(models.PollOnce(dir.string()), 1);
  EXPECT_EQ(models.current_seq(), 4u);

  fs::remove_all(dir);
}

TEST(ModelServerTest, WatcherPicksUpNewCheckpoint) {
  const fs::path dir = MakeScratchDir("watcher");
  const AgentConfig config = MakeStDdqnConfig(23);
  ModelServer models(config);
  models.StartWatcher(dir.string(), /*poll_ms=*/5);

  DqnFleetAgent agent(config, "producer");
  ASSERT_TRUE(
      SaveCheckpoint((dir / "live.ckpt").string(), 20, agent, 20).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (models.current_seq() != 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(models.current_seq(), 20u);
  models.StopWatcher();
  models.StopWatcher();  // Idempotent.

  fs::remove_all(dir);
}

TEST(ModelServerTest, ServiceAppliesCheckpointLoadedMidRun) {
  // End-to-end: a checkpoint written by the training stack, loaded through
  // PollOnce, changes what the service serves — and the served decision
  // equals a local agent restored from the same file.
  const fs::path dir = MakeScratchDir("e2e");
  const AgentConfig config = MakeStDdqnConfig(29);
  AgentConfig trained_config = config;
  trained_config.seed = 777;

  const Instance inst = MakeTestInstance(BusyOrders(2), 4);
  const FixedContext fixed(&inst);
  const int init_choice = LocalChoice(config, fixed.context);
  const int trained_choice = LocalChoice(trained_config, fixed.context);

  DqnFleetAgent trained(trained_config, "trained");
  ASSERT_TRUE(
      SaveCheckpoint((dir / "model.ckpt").string(), 12, trained, 12).ok());

  ModelServer models(config);
  DispatchService service(ServeConfig{}, &models);

  ServeReply before = service.Submit(fixed.context).get();
  EXPECT_EQ(before.model_seq, 0u);
  EXPECT_EQ(before.vehicle, init_choice);

  ASSERT_EQ(models.PollOnce(dir.string()), 1);
  ServeReply after = service.Submit(fixed.context).get();
  EXPECT_EQ(after.model_seq, 12u);
  EXPECT_EQ(after.vehicle, trained_choice);
  EXPECT_EQ(service.swaps_applied(), 1u);
  service.Stop();

  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Percentile helper
// ---------------------------------------------------------------------------

TEST(LoadGeneratorTest, NearestRankPercentiles) {
  const std::vector<double> samples = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 0.5), 0.0);
}

}  // namespace
}  // namespace dpdp::serve
