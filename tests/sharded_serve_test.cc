// Shard-aware correctness suite for the sharded dispatch fabric
// (serve::ShardRouter): the 1-vs-N-shard bitwise determinism golden, the
// campus-hash partition contract, router policies, per-shard admission
// accounting, and the hot-swap soak under sharded load. Runs under TSan in
// CI alongside serve_test — every invariant here must hold for arbitrary
// thread interleavings, not just the ones this machine happens to produce.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "serve/dispatch_service.h"
#include "serve/load_generator.h"
#include "serve/model_server.h"
#include "serve/shard_router.h"
#include "sim/environment.h"
#include "test_util.h"
#include "util/rng.h"

namespace dpdp::serve {
namespace {

using dpdp::testing::ExpectSameEpisode;
using dpdp::testing::LocalChoice;
using dpdp::testing::MakeOrder;
using dpdp::testing::MakeTestInstance;

/// A set of genuinely distinct campuses on the line network: per-campus
/// forked Rng streams vary the demand pattern, and distinct names feed the
/// campus-hash partition. Campus c's content is a pure function of
/// (seed, c) — the same across every shard-count run of a test.
std::vector<Instance> MakeCampuses(int num_campuses, int orders_per_campus,
                                   int vehicles, uint64_t seed = 1234) {
  std::vector<Instance> campuses;
  campuses.reserve(num_campuses);
  const Rng base(seed);
  for (int c = 0; c < num_campuses; ++c) {
    Rng stream = base.Fork(static_cast<uint64_t>(c));
    std::vector<Order> orders;
    orders.reserve(orders_per_campus);
    for (int i = 0; i < orders_per_campus; ++i) {
      const int pickup = 1 + stream.UniformInt(2);    // F1 / F2
      const int delivery = 3 + stream.UniformInt(2);  // F3 / F4
      orders.push_back(MakeOrder(i, pickup, delivery,
                                 2.0 + stream.UniformInt(5), 8.0 * i,
                                 600.0 + 10.0 * i));
    }
    Instance inst = MakeTestInstance(std::move(orders), vehicles);
    inst.name = "campus-" + std::to_string(c);
    campuses.push_back(std::move(inst));
  }
  return campuses;
}

std::vector<const Instance*> Pointers(const std::vector<Instance>& campuses) {
  std::vector<const Instance*> ptrs;
  ptrs.reserve(campuses.size());
  for (const Instance& inst : campuses) ptrs.push_back(&inst);
  return ptrs;
}

/// Current value of a registry counter (0 when it does not exist yet).
double RegistryCounter(const std::string& name) {
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
  return m != nullptr && m->kind == obs::MetricSnapshot::Kind::kCounter
             ? m->value
             : 0.0;
}

/// Current value of a registry gauge (-1 when it does not exist yet).
double RegistryGauge(const std::string& name) {
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
  return m != nullptr && m->kind == obs::MetricSnapshot::Kind::kGauge
             ? m->value
             : -1.0;
}

/// Sample count of a registry histogram (0 when it does not exist yet).
uint64_t RegistryHistogramCount(const std::string& name) {
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
  return m != nullptr && m->kind == obs::MetricSnapshot::Kind::kHistogram
             ? m->count
             : 0;
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

// ---------------------------------------------------------------------------
// Partition map
// ---------------------------------------------------------------------------

TEST(CampusHashTest, StableAndPlatformIndependent) {
  // FNV-1a 64 of known strings — these exact values are the cross-process
  // partition contract; a hash change silently reshuffles every campus.
  EXPECT_EQ(CampusHash(""), 14695981039346656037ull);
  EXPECT_EQ(CampusHash("a"), 12638187200555641996ull);
  EXPECT_EQ(CampusHash("campus-0"), CampusHash("campus-0"));
  EXPECT_NE(CampusHash("campus-0"), CampusHash("campus-1"));
}

TEST(CampusHashTest, PartitionCoversShardsReasonably) {
  // 256 campuses over 8 shards: the FNV map must not starve any shard
  // (a starved shard means an idle service loop and a hot neighbor).
  ModelServer models(MakeStDdqnConfig(3));
  ShardedServeConfig config;
  config.num_shards = 8;
  ShardRouter router(config, &models);
  std::vector<int> per_shard(8, 0);
  for (int c = 0; c < 256; ++c) {
    const int shard = router.ShardOfCampus("campus-" + std::to_string(c));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    ++per_shard[shard];
  }
  for (int k = 0; k < 8; ++k) {
    EXPECT_GT(per_shard[k], 8) << "shard " << k << " nearly starved";
  }
  router.Stop();
}

TEST(ShardRouterTest, RoundRobinRotatesEvenly) {
  ModelServer models(MakeStDdqnConfig(3));
  ShardedServeConfig config;
  config.num_shards = 3;
  config.policy = RouterPolicy::kRoundRobin;
  ShardRouter router(config, &models);
  const Instance inst = MakeTestInstance({MakeOrder(0, 1, 3, 5, 0, 600)}, 2);
  FixedContext fixed(&inst, 2);
  std::vector<int> seen;
  for (int i = 0; i < 6; ++i) seen.push_back(router.ShardOf(fixed.context));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 0, 1, 2}));
  router.Stop();
}

// ---------------------------------------------------------------------------
// The 1-vs-N-shard bitwise determinism golden
// ---------------------------------------------------------------------------

TEST(ShardGoldenTest, SameSeedsThroughOneTwoEightShardsBitwiseIdentical) {
  // The same campus set served through 1, 2 and 8 shards must produce
  // per-campus episodes bitwise identical to each other AND to local
  // agents — the shard count is a pure throughput knob. The 1-shard
  // configuration is exactly the PR-5 single-service path (one queue, one
  // loop, one net replica), so this golden also pins the degeneration.
  const std::vector<Instance> campuses = MakeCampuses(6, 10, 3);
  const std::vector<const Instance*> ptrs = Pointers(campuses);
  const AgentConfig config = MakeStDdqnConfig(11);
  LoadOptions options;
  options.sim.record_plan = true;

  const LoadReport local = RunLocalAgentsLoad(ptrs, config, options);
  ASSERT_EQ(local.clients.size(), campuses.size());
  ASSERT_GT(local.total_decisions, 0);

  const double requests_before = RegistryCounter("serve.requests");
  std::map<int, double> shard_counter_before;
  for (int k = 0; k < 8; ++k) {
    shard_counter_before[k] =
        RegistryCounter("serve.shard" + std::to_string(k) + ".requests");
  }

  ModelServer models(config);  // One snapshot source for every shard count.
  long served_requests = 0;
  for (const int num_shards : {1, 2, 8}) {
    ShardedServeConfig serve_config;
    serve_config.num_shards = num_shards;
    serve_config.shard.max_batch = 4;
    serve_config.shard.max_wait_us = 200;
    ShardRouter router(serve_config, &models);
    const LoadReport served = RunServedLoad(ptrs, &router, options);
    router.Stop();

    ASSERT_EQ(served.clients.size(), campuses.size());
    for (size_t i = 0; i < campuses.size(); ++i) {
      ASSERT_EQ(served.clients[i].episodes.size(), 1u);
      ExpectSameEpisode(local.clients[i].episodes[0],
                        served.clients[i].episodes[0]);
      EXPECT_EQ(served.clients[i].sheds, 0);
    }

    // Campus-hash stickiness: shard k answered exactly the decisions of
    // the campuses the partition map assigns to it.
    const RouterStats stats = router.Stats();
    ASSERT_EQ(stats.shards.size(), static_cast<size_t>(num_shards));
    std::vector<uint64_t> expected_per_shard(num_shards, 0);
    for (size_t i = 0; i < campuses.size(); ++i) {
      expected_per_shard[router.ShardOfCampus(campuses[i].name)] +=
          static_cast<uint64_t>(local.clients[i].episodes[0].num_decisions);
    }
    for (int k = 0; k < num_shards; ++k) {
      EXPECT_EQ(stats.shards[k].requests, expected_per_shard[k])
          << num_shards << "-shard run, shard " << k;
    }
    EXPECT_EQ(stats.total.requests,
              static_cast<uint64_t>(served.total_decisions));
    EXPECT_EQ(stats.total.sheds, 0u);
    EXPECT_EQ(stats.total.degraded, 0u);
    served_requests += served.total_decisions;
  }

  // Cross-shard registry rollup: every request of this test flowed through
  // a tagged shard, so the aggregate counter's delta must equal the sum of
  // the per-shard counters' deltas exactly.
  const double aggregate_delta =
      RegistryCounter("serve.requests") - requests_before;
  double shard_delta = 0.0;
  for (int k = 0; k < 8; ++k) {
    shard_delta +=
        RegistryCounter("serve.shard" + std::to_string(k) + ".requests") -
        shard_counter_before[k];
  }
  EXPECT_DOUBLE_EQ(aggregate_delta, shard_delta);
  EXPECT_DOUBLE_EQ(aggregate_delta, static_cast<double>(served_requests));
}

TEST(ShardGoldenTest, GraphNetFamilyMatchesAcrossShards) {
  // The relational (ST-DDGN) family exercises the neighbor-list attention
  // path; two shards suffice to prove the fabric preserves it.
  const std::vector<Instance> campuses = MakeCampuses(4, 8, 3, /*seed=*/77);
  const std::vector<const Instance*> ptrs = Pointers(campuses);
  const AgentConfig config = MakeStDdgnConfig(11);
  LoadOptions options;
  options.sim.record_plan = true;

  const LoadReport local = RunLocalAgentsLoad(ptrs, config, options);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.max_batch = 4;
  serve_config.shard.max_wait_us = 200;
  ShardRouter router(serve_config, &models);
  const LoadReport served = RunServedLoad(ptrs, &router, options);
  router.Stop();
  for (size_t i = 0; i < campuses.size(); ++i) {
    ExpectSameEpisode(local.clients[i].episodes[0],
                      served.clients[i].episodes[0]);
  }
}

TEST(ShardRouterTest, RoundRobinPolicyPreservesDecisions) {
  // Round-robin scatters one campus's requests across every shard; the
  // decisions must still be bitwise those of a local agent, because WHICH
  // shard evaluates a request is invisible to the answer.
  const std::vector<Instance> campuses = MakeCampuses(3, 8, 3, /*seed=*/55);
  const std::vector<const Instance*> ptrs = Pointers(campuses);
  const AgentConfig config = MakeStDdqnConfig(19);
  LoadOptions options;
  options.sim.record_plan = true;

  const LoadReport local = RunLocalAgentsLoad(ptrs, config, options);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 3;
  serve_config.policy = RouterPolicy::kRoundRobin;
  serve_config.shard.max_batch = 4;
  serve_config.shard.max_wait_us = 200;
  ShardRouter router(serve_config, &models);
  const LoadReport served = RunServedLoad(ptrs, &router, options);
  router.Stop();
  for (size_t i = 0; i < campuses.size(); ++i) {
    ExpectSameEpisode(local.clients[i].episodes[0],
                      served.clients[i].episodes[0]);
  }
}

// ---------------------------------------------------------------------------
// Per-shard admission control
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, DrainModeShedsOnEveryShardWithPerShardAccounting) {
  const std::vector<Instance> campuses = MakeCampuses(4, 1, 4, /*seed=*/91);
  ModelServer models(MakeStDdqnConfig(23));
  ShardedServeConfig config;
  config.num_shards = 2;
  config.shard.queue_capacity = 0;  // Drain mode: shed everything.
  ShardRouter router(config, &models);

  int total = 0;
  for (const Instance& inst : campuses) {
    FixedContext fixed(&inst);
    const int expected_shard = router.ShardOfCampus(inst.name);
    for (int i = 0; i < 3; ++i) {
      const ServeReply reply = router.Submit(fixed.context).get();
      EXPECT_TRUE(reply.shed);
      EXPECT_EQ(reply.vehicle, 0);  // Greedy fallback: min incremental.
      EXPECT_EQ(reply.shard, expected_shard);
      ++total;
    }
  }
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.total.requests, static_cast<uint64_t>(total));
  EXPECT_EQ(stats.total.sheds, static_cast<uint64_t>(total));
  EXPECT_EQ(stats.total.batches, 0u);
  // Shedding is per shard: each shard shed exactly what was routed to it.
  for (size_t k = 0; k < stats.shards.size(); ++k) {
    EXPECT_EQ(stats.shards[k].sheds, stats.shards[k].requests);
  }
  router.Stop();
}

// ---------------------------------------------------------------------------
// Telemetry rollup: queue-depth gauges, latency histogram, reroute latency
// ---------------------------------------------------------------------------

TEST(TelemetryRollupTest, QueueDepthAndLatencyRollUpAcrossShards) {
  const std::vector<Instance> campuses = MakeCampuses(4, 6, 3, /*seed=*/67);
  const std::vector<const Instance*> ptrs = Pointers(campuses);
  const AgentConfig config = MakeStDdqnConfig(29);
  ModelServer models(config);

  const double requests_before = RegistryCounter("serve.requests");
  const uint64_t latency_before =
      RegistryHistogramCount("serve.request_latency_s");
  std::map<int, double> shard_requests_before;
  for (int k = 0; k < 2; ++k) {
    shard_requests_before[k] =
        RegistryCounter("serve.shard" + std::to_string(k) + ".requests");
  }

  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.max_batch = 4;
  serve_config.shard.max_wait_us = 200;
  ShardRouter router(serve_config, &models);
  LoadOptions options;
  const LoadReport served = RunServedLoad(ptrs, &router, options);
  router.Stop();
  ASSERT_GT(served.total_decisions, 0);

  // Queue-depth gauges exist for the aggregate and every shard, and after
  // a drained run they all read 0 — the last batch pop saw an empty
  // backlog. (A -1 here means the gauge was never registered.)
  EXPECT_EQ(RegistryGauge("serve.queue_depth"), 0.0);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(RegistryGauge("serve.shard" + std::to_string(k) +
                            ".queue_depth"),
              0.0)
        << "shard " << k;
  }

  // Every answered request records one end-to-end latency sample, on every
  // path (served / shed / deadline) — the histogram the SLO monitor's p99
  // objective reads. Its count delta must match the requests delta, which
  // in turn must equal the per-shard rollup.
  const double aggregate_delta =
      RegistryCounter("serve.requests") - requests_before;
  EXPECT_EQ(static_cast<double>(
                RegistryHistogramCount("serve.request_latency_s") -
                latency_before),
            aggregate_delta);
  double shard_delta = 0.0;
  for (int k = 0; k < 2; ++k) {
    shard_delta +=
        RegistryCounter("serve.shard" + std::to_string(k) + ".requests") -
        shard_requests_before[k];
  }
  EXPECT_DOUBLE_EQ(aggregate_delta, shard_delta);
  EXPECT_DOUBLE_EQ(aggregate_delta,
                   static_cast<double>(served.total_decisions));

  // The load generator's percentiles come from the same histogram-quantile
  // estimator the telemetry plane uses, so they are finite and ordered.
  EXPECT_GE(served.p95_us, served.p50_us);
  EXPECT_GE(served.p99_us, served.p95_us);
  EXPECT_GT(served.p99_us, 0.0);
}

TEST(TelemetryRollupTest, RerouteRecordsItsLatencyHistogram) {
  ModelServer models(MakeStDdqnConfig(43));
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.max_wait_us = 200;
  ShardRouter router(serve_config, &models);

  // A campus homed on shard 0, with shard 0's partition failed over: the
  // submit diverts to shard 1 and must record exactly one reroute-latency
  // sample (the fast path records none).
  std::string campus;
  for (int i = 0; i < 10000 && campus.empty(); ++i) {
    const std::string name = "campus-" + std::to_string(i);
    if (router.ShardOfCampus(name) == 0) campus = name;
  }
  ASSERT_FALSE(campus.empty());
  Instance inst = MakeTestInstance({MakeOrder(0, 1, 3, 5, 0, 600)}, 4);
  inst.name = campus;
  const FixedContext fixed(&inst);

  const uint64_t reroute_before =
      RegistryHistogramCount("serve.reroute_latency_s");
  router.TripShard(0);
  const ServeReply diverted = router.Submit(fixed.context).get();
  EXPECT_EQ(diverted.shard, 1);
  EXPECT_FALSE(diverted.shed);
  EXPECT_EQ(RegistryHistogramCount("serve.reroute_latency_s"),
            reroute_before + 1);
  EXPECT_EQ(router.shard(0).rerouted(), 1u);

  // Restored: the next submit stays home and records nothing.
  router.RestoreShard(0);
  const ServeReply home = router.Submit(fixed.context).get();
  EXPECT_EQ(home.shard, 0);
  EXPECT_EQ(RegistryHistogramCount("serve.reroute_latency_s"),
            reroute_before + 1);
  router.Stop();
}

// ---------------------------------------------------------------------------
// Hot-swap soak under sharded load
// ---------------------------------------------------------------------------

TEST(ShardedHotSwapSoakTest, AllShardsTrackPublishesWithoutSeqRegression) {
  // K checkpoints with strictly increasing seq are published while every
  // shard serves closed-loop requesters. Invariants, per reply: the
  // decision matches the per-seq ground truth (a reply scored by snapshot
  // s must equal the local choice under s's weights — torn weight syncs
  // show up as matching neither), the answering shard is the partition
  // map's, and each requester's observed seq never decreases (its campus
  // is pinned to one shard whose loop syncs monotonically; a regression
  // would mean a shard rolled its replica back mid-stream).
  AgentConfig config_a = MakeStDdqnConfig(31);
  AgentConfig config_b = config_a;
  config_b.seed = 909;  // Same architecture, different weights.

  const std::vector<Instance> campuses = MakeCampuses(6, 1, 4, /*seed=*/47);
  std::vector<std::unique_ptr<FixedContext>> contexts;
  std::vector<int> choice_a, choice_b;
  for (const Instance& inst : campuses) {
    contexts.push_back(std::make_unique<FixedContext>(&inst));
    choice_a.push_back(LocalChoice(config_a, contexts.back()->context));
    choice_b.push_back(LocalChoice(config_b, contexts.back()->context));
    ASSERT_GE(choice_a.back(), 0);
    ASSERT_GE(choice_b.back(), 0);
  }

  const std::vector<nn::Matrix> weights_a =
      DqnFleetAgent(config_a, "a").ExportPolicyWeights();
  const std::vector<nn::Matrix> weights_b =
      DqnFleetAgent(config_b, "b").ExportPolicyWeights();

  ModelServer models(config_a);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 4;
  serve_config.shard.max_batch = 8;
  serve_config.shard.max_wait_us = 100;
  ShardRouter router(serve_config, &models);

  constexpr int kSwaps = 25;
  constexpr int kRequestsEach = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> wrong_shard{0};
  std::atomic<int> seq_regressions{0};
  std::atomic<int> unanswered{0};

  std::vector<std::thread> requesters;
  requesters.reserve(campuses.size());
  for (size_t c = 0; c < campuses.size(); ++c) {
    requesters.emplace_back([&, c] {
      const int expected_shard = router.ShardOfCampus(campuses[c].name);
      uint64_t last_seq = 0;
      for (int i = 0; i < kRequestsEach; ++i) {
        std::future<ServeReply> fut = router.Submit(contexts[c]->context);
        if (fut.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          unanswered.fetch_add(1);
          return;
        }
        const ServeReply reply = fut.get();
        if (reply.shed) continue;  // Shed replies bypass the model.
        if (reply.shard != expected_shard) wrong_shard.fetch_add(1);
        const int expected = (reply.model_seq % 2 == 0)
                                 ? choice_a[c]
                                 : choice_b[c];
        if (reply.vehicle != expected) mismatches.fetch_add(1);
        if (reply.model_seq < last_seq) seq_regressions.fetch_add(1);
        last_seq = reply.model_seq;
      }
    });
  }
  std::thread publisher([&] {
    for (int i = 1; i <= kSwaps; ++i) {
      auto snap = std::make_shared<ModelSnapshot>();
      snap->seq = static_cast<uint64_t>(i);
      snap->source = "soak";
      snap->weights = (i % 2 == 0) ? weights_a : weights_b;
      models.Publish(std::move(snap));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  for (std::thread& t : requesters) t.join();
  publisher.join();

  EXPECT_EQ(unanswered.load(), 0) << "a shard stalled in-flight requests";
  EXPECT_EQ(mismatches.load(), 0)
      << "a reply matched neither snapshot's ground truth (torn sync)";
  EXPECT_EQ(wrong_shard.load(), 0) << "router violated the partition map";
  EXPECT_EQ(seq_regressions.load(), 0) << "a shard rolled back its replica";

  // After the dust settles every shard that serves another request must be
  // on the final snapshot (Publish happened-before), and its recorded
  // net_seq is final too — the fan-out reached all N subscribers.
  for (size_t c = 0; c < campuses.size(); ++c) {
    const ServeReply last = router.Submit(contexts[c]->context).get();
    EXPECT_EQ(last.model_seq, static_cast<uint64_t>(kSwaps));
    EXPECT_EQ(last.vehicle, kSwaps % 2 == 0 ? choice_a[c] : choice_b[c]);
  }
  for (int k = 0; k < router.num_shards(); ++k) {
    if (router.shard(k).requests() > router.shard(k).sheds()) {
      EXPECT_EQ(router.shard(k).net_seq(), static_cast<uint64_t>(kSwaps))
          << "shard " << k << " never caught up";
    }
  }
  router.Stop();
}

}  // namespace
}  // namespace dpdp::serve
