// Fault-tolerance suite for the serving fabric: the seeded ChaosPolicy
// schedule, per-request deadlines (expired-at-push, expiry-while-queued,
// and the accounting reconciliation against local-agent degraded counts),
// closed-queue shed/reroute accounting, the ShardSupervisor recovery loop
// (crash -> breaker-gated restart -> partition restored), checkpoint
// quarantine, and a randomized kill/restart soak asserting the fabric's
// one absolute: no client promise is ever lost. Runs under TSan in CI.
//
// Determinism discipline: chaos is a pure function of (seed, shard, tick),
// so the tests that need a specific fault (one crash, then a clean runway)
// SEARCH the seed space for a schedule with exactly that shape instead of
// sleeping and hoping — the found seed replays identically on every run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
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
#include "serve/chaos.h"
#include "serve/circuit_breaker.h"
#include "serve/dispatch_service.h"
#include "serve/model_server.h"
#include "serve/service_dispatcher.h"
#include "serve/shard_router.h"
#include "serve/shard_supervisor.h"
#include "sim/environment.h"
#include "test_util.h"
#include "util/timer.h"

namespace dpdp::serve {
namespace {

namespace fs = std::filesystem;
using dpdp::testing::LocalChoice;
using dpdp::testing::MakeOrder;
using dpdp::testing::MakeTestInstance;

// ---------------------------------------------------------------------------
// Shared fixtures (mirrors serve_test.cc / sharded_serve_test.cc)
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

/// Plan equality EXCLUDING num_degraded_decisions: the deadline
/// reconciliation compares a served episode (fallback applied inside the
/// service, so the simulator never sees a degraded choice) against a local
/// episode where the simulator itself degraded every decision — same
/// plans, different bookkeeping, and the bookkeeping is asserted
/// separately.
void ExpectSamePlan(const EpisodeResult& a, const EpisodeResult& b) {
  EXPECT_EQ(a.num_orders, b.num_orders);
  EXPECT_EQ(a.num_served, b.num_served);
  EXPECT_EQ(a.num_unserved, b.num_unserved);
  EXPECT_EQ(a.num_decisions, b.num_decisions);
  EXPECT_EQ(a.nuv, b.nuv);
  EXPECT_EQ(a.total_travel_length, b.total_travel_length);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.sum_incremental_length, b.sum_incremental_length);
  EXPECT_EQ(a.order_assignment, b.order_assignment);
}

/// Unique scratch directory under the system temp dir.
fs::path MakeScratchDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dpdp_chaos_test_" + tag + "_" +
       std::to_string(static_cast<uint64_t>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
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

/// Scans chaos seeds for a schedule that fires exactly `wanted` at
/// (shard 0, tick 0) and nothing anywhere else in the shards x ticks
/// window — one deterministic fault with a clean runway after it.
uint64_t FindSeedWithLoneFault(ChaosConfig config, ChaosAction wanted,
                               int shards, int ticks) {
  for (uint64_t seed = 1; seed < 500000; ++seed) {
    config.seed = seed;
    const ChaosPolicy policy(config);
    if (policy.ActionAt(0, 0) != wanted) continue;
    bool lone = true;
    for (int s = 0; s < shards && lone; ++s) {
      for (int t = (s == 0) ? 1 : 0; t < ticks && lone; ++t) {
        if (policy.ActionAt(s, t) != ChaosAction::kNone) lone = false;
      }
    }
    if (lone) return seed;
  }
  ADD_FAILURE() << "no lone-fault chaos seed in scan range";
  return 0;
}

/// A campus name the router's hash partition homes on `shard`.
std::string CampusOnShard(const ShardRouter& router, int shard) {
  for (int i = 0; i < 10000; ++i) {
    std::string name = "campus-" + std::to_string(i);
    if (router.ShardOfCampus(name) == shard) return name;
  }
  ADD_FAILURE() << "no campus name hashes to shard " << shard;
  return "";
}

/// Waits until `predicate` holds or `timeout` elapses; returns the verdict.
template <typename Predicate>
bool WaitFor(Predicate predicate, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// ChaosPolicy: the seeded fault schedule
// ---------------------------------------------------------------------------

TEST(ChaosPolicyTest, DefaultConfigIsInert) {
  const ChaosConfig config;
  EXPECT_FALSE(config.any());
  const ChaosPolicy policy(config);
  for (int shard = -1; shard < 4; ++shard) {
    for (uint64_t tick = 0; tick < 64; ++tick) {
      EXPECT_EQ(policy.ActionAt(shard, tick), ChaosAction::kNone);
    }
  }
  for (uint64_t publish = 0; publish < 64; ++publish) {
    EXPECT_FALSE(policy.CorruptPublishAt(publish));
  }
}

TEST(ChaosPolicyTest, ScheduleIsAPureFunctionOfSeedShardTick) {
  ChaosConfig config;
  config.seed = 7;
  config.stall_prob = 0.5;
  const ChaosPolicy a(config), b(config);
  config.seed = 8;
  const ChaosPolicy other(config);

  int differs = 0;
  for (int shard = 0; shard < 4; ++shard) {
    for (uint64_t tick = 0; tick < 64; ++tick) {
      // Same config: bit-identical schedule — replayable chaos.
      EXPECT_EQ(a.ActionAt(shard, tick), b.ActionAt(shard, tick));
      if (a.ActionAt(shard, tick) != other.ActionAt(shard, tick)) ++differs;
    }
  }
  // A different seed is a different schedule (256 cells at p=0.5: if these
  // all agreed the seed would not be feeding the draw at all).
  EXPECT_GT(differs, 0);
}

TEST(ChaosPolicyTest, FaultKindsDrawFromIndependentSubStreams) {
  // Enabling the slowdown stream must not move a single stall cell: each
  // kind draws from its own sub-stream (the DisruptionConfig contract).
  ChaosConfig stall_only;
  stall_only.seed = 21;
  stall_only.stall_prob = 0.3;
  ChaosConfig stall_and_slow = stall_only;
  stall_and_slow.slow_prob = 0.6;
  const ChaosPolicy a(stall_only), b(stall_and_slow);

  int slowdowns = 0;
  for (int shard = 0; shard < 4; ++shard) {
    for (uint64_t tick = 0; tick < 64; ++tick) {
      const bool a_stalls = a.ActionAt(shard, tick) == ChaosAction::kStall;
      const bool b_stalls = b.ActionAt(shard, tick) == ChaosAction::kStall;
      EXPECT_EQ(a_stalls, b_stalls) << "shard " << shard << " tick " << tick;
      if (b.ActionAt(shard, tick) == ChaosAction::kEvalSlowdown) ++slowdowns;
    }
  }
  EXPECT_GT(slowdowns, 0);  // The new stream actually fires somewhere.
}

TEST(ChaosPolicyTest, SeverityPrefersCrashOverStallOverSlowdown) {
  ChaosConfig config;
  config.seed = 5;
  config.crash_prob = 1.0;
  config.stall_prob = 1.0;
  config.slow_prob = 1.0;
  EXPECT_EQ(ChaosPolicy(config).ActionAt(0, 0), ChaosAction::kCrash);
  config.crash_prob = 0.0;
  EXPECT_EQ(ChaosPolicy(config).ActionAt(0, 0), ChaosAction::kStall);
  config.stall_prob = 0.0;
  EXPECT_EQ(ChaosPolicy(config).ActionAt(0, 0), ChaosAction::kEvalSlowdown);
  config.slow_prob = 0.0;
  EXPECT_EQ(ChaosPolicy(config).ActionAt(0, 0), ChaosAction::kNone);
}

TEST(ChaosPolicyTest, CorruptPublishStreamIsDeterministicAndIndependent) {
  ChaosConfig config;
  config.seed = 11;
  config.corrupt_publish_prob = 0.5;
  ChaosConfig with_faults = config;
  with_faults.crash_prob = 0.9;
  with_faults.stall_prob = 0.9;
  const ChaosPolicy a(config), b(with_faults);
  int corrupt = 0;
  for (uint64_t publish = 0; publish < 64; ++publish) {
    // Publish corruption lives outside the per-shard streams entirely.
    EXPECT_EQ(a.CorruptPublishAt(publish), b.CorruptPublishAt(publish));
    if (a.CorruptPublishAt(publish)) ++corrupt;
  }
  EXPECT_GT(corrupt, 0);
  EXPECT_LT(corrupt, 64);
}

TEST(ChaosPolicyTest, ConfigFromEnvParsesEveryKnob) {
  // Above 2^32: a seed squeezed through int would wrap.
  ::setenv("DPDP_SERVE_CHAOS_SEED", "5000000000", 1);
  ::setenv("DPDP_SERVE_CHAOS_STALL_PROB", "0.25", 1);
  ::setenv("DPDP_SERVE_CHAOS_STALL_US", "1234", 1);
  ::setenv("DPDP_SERVE_CHAOS_SLOW_PROB", "0.125", 1);
  ::setenv("DPDP_SERVE_CHAOS_SLOW_US", "77", 1);
  ::setenv("DPDP_SERVE_CHAOS_CRASH_PROB", "0.0625", 1);
  ::setenv("DPDP_SERVE_CHAOS_CORRUPT_PROB", "0.5", 1);
  const ChaosConfig config = ChaosConfigFromEnv();
  ::unsetenv("DPDP_SERVE_CHAOS_SEED");
  ::unsetenv("DPDP_SERVE_CHAOS_STALL_PROB");
  ::unsetenv("DPDP_SERVE_CHAOS_STALL_US");
  ::unsetenv("DPDP_SERVE_CHAOS_SLOW_PROB");
  ::unsetenv("DPDP_SERVE_CHAOS_SLOW_US");
  ::unsetenv("DPDP_SERVE_CHAOS_CRASH_PROB");
  ::unsetenv("DPDP_SERVE_CHAOS_CORRUPT_PROB");

  EXPECT_EQ(config.seed, 5000000000u);
  EXPECT_DOUBLE_EQ(config.stall_prob, 0.25);
  EXPECT_EQ(config.stall_us, 1234);
  EXPECT_DOUBLE_EQ(config.slow_prob, 0.125);
  EXPECT_EQ(config.slow_us, 77);
  EXPECT_DOUBLE_EQ(config.crash_prob, 0.0625);
  EXPECT_DOUBLE_EQ(config.corrupt_publish_prob, 0.5);
  EXPECT_TRUE(config.any());
  EXPECT_FALSE(ChaosConfigFromEnv().any());  // Clean env: chaos off.
}

// ---------------------------------------------------------------------------
// Deadlines: expired-at-push, expiry-while-queued, accounting
// ---------------------------------------------------------------------------

TEST(DeadlineTest, AlreadyExpiredAtPushAnswersOnTheCallerThread) {
  const AgentConfig config = MakeStDdqnConfig(31);
  const Instance inst = MakeTestInstance(BusyOrders(2), 4);
  const FixedContext fixed(&inst);
  ModelServer models(config);
  DispatchService service(ServeConfig{}, &models);

  const double before = RegistryCounter("serve.deadline_exceeded");
  std::future<ServeReply> fut = service.SubmitWithDeadline(
      fixed.context,
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  // Answered synchronously inside SubmitWithDeadline: a dead-on-arrival
  // request never occupies a queue slot or waits on the loop.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ServeReply reply = fut.get();
  service.Stop();

  EXPECT_TRUE(reply.deadline_exceeded);
  EXPECT_FALSE(reply.shed);
  EXPECT_FALSE(reply.degraded);
  EXPECT_EQ(reply.vehicle, 0);  // Greedy fallback on FixedContext.
  EXPECT_EQ(service.deadline_exceeded(), 1u);
  EXPECT_EQ(service.requests(), 1u);
  EXPECT_EQ(service.sheds(), 0u);
  EXPECT_EQ(RegistryCounter("serve.deadline_exceeded") - before, 1.0);
}

TEST(DeadlineTest, ExpiryWhileQueuedDegradesToGreedyFallback) {
  const AgentConfig config = MakeStDdqnConfig(31);
  const Instance inst = MakeTestInstance(BusyOrders(2), 4);
  const FixedContext fixed(&inst);
  ModelServer models(config);

  // A 1 us deadline against a 20 ms batching window: the request is
  // admitted alive and ages out in the queue, so the service loop's triage
  // (not the push path) must answer it with the fallback.
  ServeConfig serve_config;
  serve_config.deadline_us = 1;
  serve_config.max_wait_us = 20000;
  DispatchService service(serve_config, &models);
  const ServeReply reply = service.Submit(fixed.context).get();

  EXPECT_TRUE(reply.deadline_exceeded);
  EXPECT_FALSE(reply.shed);
  EXPECT_EQ(reply.vehicle, 0);
  EXPECT_EQ(service.deadline_exceeded(), 1u);
  EXPECT_EQ(service.requests(), 1u);
  EXPECT_EQ(service.batches(), 0u);  // An all-expired pop evaluates nothing.
  service.Stop();

  // Control: a generous deadline on the same service shape is answered by
  // the model, proving the knob (not the refactor) produced the fallback.
  ServeConfig roomy = serve_config;
  roomy.deadline_us = 10000000;
  roomy.max_wait_us = 200;
  DispatchService relaxed(roomy, &models);
  const ServeReply model_reply = relaxed.Submit(fixed.context).get();
  relaxed.Stop();
  EXPECT_FALSE(model_reply.deadline_exceeded);
  EXPECT_EQ(model_reply.vehicle, LocalChoice(config, fixed.context));
}

/// Deadline-vs-degraded reconciliation: a served episode in which EVERY
/// request blows its deadline must (a) produce exactly the plans of a
/// local agent whose every decision blew the simulator's decision-time
/// budget (both fall back to Baseline 1's greedy rule), and (b) count
/// every one of them — serve.deadline_exceeded on the service side equals
/// num_degraded_decisions on the local side, with zero sheds mixed in.
void RunDeadlineReconciliation(const AgentConfig& config) {
  const Instance inst = MakeTestInstance(BusyOrders(8), 3);
  SimulatorConfig sim_config;
  sim_config.record_plan = true;

  // Local ground truth: an over-budget agent degrades every decision.
  SimulatorConfig degraded_config = sim_config;
  degraded_config.decision_time_budget_s = 1e-12;
  DqnFleetAgent agent(config, "over-budget");
  Environment local_sim(&inst, degraded_config);
  const EpisodeResult local = RunEpisode(&local_sim, &agent);
  ASSERT_GT(local.num_decisions, 0);
  ASSERT_EQ(local.num_degraded_decisions, local.num_decisions);

  // Served: every request expires in the queue before evaluation.
  ModelServer models(config);
  ServeConfig serve_config;
  serve_config.deadline_us = 1;
  serve_config.max_wait_us = 2000;
  DispatchService service(serve_config, &models);
  ServiceDispatcher dispatcher(&service, "deadline-client");
  Environment served_sim(&inst, sim_config);
  const EpisodeResult served = RunEpisode(&served_sim, &dispatcher);
  service.Stop();

  // Same plans; the degradation ledger just lives on different sides (the
  // service answered with the fallback, so the simulator saw only valid
  // choices and degraded nothing itself).
  ExpectSamePlan(local, served);
  EXPECT_EQ(served.num_degraded_decisions, 0);
  EXPECT_TRUE(dpdp::testing::CheckEpisodeFeasible(inst, served));

  EXPECT_EQ(dispatcher.deadline_exceeded(), local.num_degraded_decisions);
  EXPECT_EQ(service.deadline_exceeded(),
            static_cast<uint64_t>(local.num_degraded_decisions));
  EXPECT_EQ(service.requests(),
            static_cast<uint64_t>(served.num_decisions));
  EXPECT_EQ(dispatcher.sheds(), 0);       // Deadline-exceeded is NOT shed:
  EXPECT_EQ(service.sheds(), 0u);         // the two ledgers never blur.
  EXPECT_EQ(service.batches(), 0u);
}

TEST(DeadlineTest, ReconciliationMatchesLocalDegradedCountsMlp) {
  RunDeadlineReconciliation(MakeStDdqnConfig(33));
}

TEST(DeadlineTest, ReconciliationMatchesLocalDegradedCountsGraph) {
  RunDeadlineReconciliation(MakeStDdgnConfig(33));
}

// ---------------------------------------------------------------------------
// Closed-queue semantics: distinct accounting, router re-route
// ---------------------------------------------------------------------------

TEST(ClosedQueueTest, StoppedServiceShedsWithClosedAccounting) {
  const AgentConfig config = MakeStDdqnConfig(35);
  const Instance inst = MakeTestInstance(BusyOrders(2), 4);
  const FixedContext fixed(&inst);
  ModelServer models(config);
  DispatchService service(ServeConfig{}, &models);
  service.Stop();

  const double before = RegistryCounter("serve.shed_closed");
  const ServeReply reply = service.Submit(fixed.context).get();
  EXPECT_TRUE(reply.shed);
  EXPECT_EQ(reply.vehicle, 0);
  EXPECT_EQ(service.requests(), 1u);
  EXPECT_EQ(service.sheds(), 1u);
  // kClosed is a distinct rejection: it shows up in shed_closed on top of
  // the plain shed counter, so dashboards can tell "overloaded" (kFull)
  // from "down" (kClosed) at a glance.
  EXPECT_EQ(service.sheds_closed(), 1u);
  EXPECT_EQ(RegistryCounter("serve.shed_closed") - before, 1.0);
}

TEST(ClosedQueueTest, RouterHopsPastAClosedShardInsteadOfShedding) {
  const AgentConfig config = MakeStDdqnConfig(35);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  ShardRouter router(serve_config, &models);

  Instance inst = MakeTestInstance(BusyOrders(2), 4);
  inst.name = CampusOnShard(router, 0);
  const FixedContext fixed(&inst);
  const int expected = LocalChoice(config, fixed.context);

  // Shard 0 goes down hard (queue closed). Its campus's next request must
  // hop to shard 1 and be answered by the MODEL there — a closed queue is
  // a re-route, not a shed.
  router.shard(0).Stop();
  const ServeReply reply = router.Submit(fixed.context).get();
  EXPECT_FALSE(reply.shed);
  EXPECT_EQ(reply.vehicle, expected);
  EXPECT_EQ(reply.shard, 1);

  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.shards[1].requests, 1u);  // Counted where admitted...
  EXPECT_EQ(stats.shards[0].requests, 0u);  // ...not on the dead shard...
  EXPECT_EQ(stats.shards[0].rerouted, 1u);  // ...whose ledger says why.
  EXPECT_EQ(stats.total.requests, 1u);
  EXPECT_EQ(stats.total.sheds, 0u);
  router.Stop();
}

TEST(ClosedQueueTest, WholeFabricClosedStillAnswersEveryPromise) {
  const AgentConfig config = MakeStDdqnConfig(35);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  ShardRouter router(serve_config, &models);

  Instance inst = MakeTestInstance(BusyOrders(2), 4);
  inst.name = CampusOnShard(router, 0);
  const FixedContext fixed(&inst);

  router.Stop();  // Every queue closed: the fabric is shutting down.
  const ServeReply reply = router.Submit(fixed.context).get();
  EXPECT_TRUE(reply.shed);
  EXPECT_EQ(reply.vehicle, 0);

  // The all-closed path books the request AND the closed-shed against the
  // home shard, so the rollup still balances during teardown.
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.shards[0].requests, 1u);
  EXPECT_EQ(stats.shards[0].sheds_closed, 1u);
  EXPECT_EQ(stats.total.requests, 1u);
  EXPECT_EQ(stats.total.sheds, 1u);
}

// ---------------------------------------------------------------------------
// ShardSupervisor: crash -> failover -> restart -> partition restored
// ---------------------------------------------------------------------------

TEST(ShardSupervisorTest, CrashIsRestartedAndThePartitionRestored) {
  ChaosConfig chaos;
  chaos.crash_prob = 0.05;
  chaos.seed =
      FindSeedWithLoneFault(chaos, ChaosAction::kCrash, /*shards=*/2,
                            /*ticks=*/20);
  ASSERT_NE(chaos.seed, 0u);

  const AgentConfig config = MakeStDdqnConfig(37);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.max_wait_us = 200;
  serve_config.shard.chaos = chaos;
  ShardRouter router(serve_config, &models);
  ShardSupervisor supervisor(SupervisorConfig{}, &router);  // Manual scans.

  Instance inst = MakeTestInstance(BusyOrders(2), 4);
  inst.name = CampusOnShard(router, 0);
  const FixedContext fixed(&inst);
  const int expected = LocalChoice(config, fixed.context);

  const double crashes_before = RegistryCounter("serve.chaos.crashes");
  std::future<ServeReply> orphan = router.Submit(fixed.context);
  // The schedule crashes shard 0 at its tick 0 — the batch holding our
  // request is requeued and the loop dies with the queue still open.
  ASSERT_TRUE(WaitFor([&] { return router.shard(0).crashed(); },
                      std::chrono::seconds(30)));
  EXPECT_EQ(router.shard(0).queue_size(), 1u);
  EXPECT_EQ(orphan.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(RegistryCounter("serve.chaos.crashes") - crashes_before, 1.0);

  // One scan does the whole recovery: classify dead, trip the partition
  // over, restart (breaker closed: first crash is under the threshold),
  // reroute the orphan to the stand-in, restore the original map.
  supervisor.ScanOnce(MonotonicNanos());
  EXPECT_EQ(router.shard(0).restarts(), 1u);
  EXPECT_FALSE(router.shard(0).crashed());
  EXPECT_FALSE(router.IsTripped(0));
  EXPECT_EQ(supervisor.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(supervisor.breaker(0).trips(), 0u);
  EXPECT_EQ(RegistryGauge("serve.shard0.health"), 0.0);

  // The orphaned promise resolves with the MODEL's answer, served by the
  // stand-in shard — rerouted, never lost, never downgraded to a shed.
  const ServeReply rescued = orphan.get();
  EXPECT_EQ(rescued.vehicle, expected);
  EXPECT_FALSE(rescued.shed);
  EXPECT_EQ(rescued.shard, 1);
  EXPECT_EQ(router.shard(0).rerouted(), 1u);  // Charged to the HOME shard.

  // Partition restored: the campus's next request runs on shard 0 again
  // (its tick 1 is clean by seed construction).
  const ServeReply resumed = router.Submit(fixed.context).get();
  EXPECT_EQ(resumed.shard, 0);
  EXPECT_EQ(resumed.vehicle, expected);
  router.Stop();
}

TEST(ShardSupervisorTest, CrashLoopHoldsRestartUntilTheBackoffElapses) {
  ChaosConfig chaos;
  chaos.crash_prob = 0.05;
  chaos.seed =
      FindSeedWithLoneFault(chaos, ChaosAction::kCrash, /*shards=*/2,
                            /*ticks=*/20);
  ASSERT_NE(chaos.seed, 0u);

  const AgentConfig config = MakeStDdqnConfig(39);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.max_wait_us = 200;
  serve_config.shard.chaos = chaos;
  ShardRouter router(serve_config, &models);

  // Threshold 1: the very first crash trips the breaker, modeling a shard
  // already known to be crash-looping — restarts must wait out the backoff.
  SupervisorConfig sup_config;
  sup_config.breaker.failure_threshold = 1;
  sup_config.breaker.backoff.initial_backoff_ms = 50;
  ShardSupervisor supervisor(sup_config, &router);

  Instance inst = MakeTestInstance(BusyOrders(2), 4);
  inst.name = CampusOnShard(router, 0);
  const FixedContext fixed(&inst);
  const int expected = LocalChoice(config, fixed.context);

  std::future<ServeReply> orphan = router.Submit(fixed.context);
  ASSERT_TRUE(WaitFor([&] { return router.shard(0).crashed(); },
                      std::chrono::seconds(30)));

  // Scan inside the open window: failover happens, restart does NOT — the
  // breaker holds the shard down. The orphan stays queued (still open).
  const int64_t t0 = MonotonicNanos();
  supervisor.ScanOnce(t0);
  EXPECT_EQ(supervisor.health(0), ShardHealth::kDead);
  EXPECT_TRUE(router.IsTripped(0));
  EXPECT_TRUE(router.shard(0).crashed());
  EXPECT_EQ(router.shard(0).restarts(), 0u);
  EXPECT_EQ(supervisor.breaker(0).trips(), 1u);
  EXPECT_EQ(RegistryGauge("serve.shard0.breaker_state"), 1.0);  // Open.
  EXPECT_EQ(RegistryGauge("serve.shard0.health"), 2.0);         // Dead.

  // Meanwhile the tripped partition is served by the stand-in — failover
  // availability does not wait for the backoff.
  const ServeReply diverted = router.Submit(fixed.context).get();
  EXPECT_EQ(diverted.shard, 1);
  EXPECT_EQ(diverted.vehicle, expected);
  EXPECT_GE(router.shard(0).rerouted(), 1u);

  // A scan past the open window: half-open, and the restart IS the probe.
  supervisor.ScanOnce(t0 + 60 * 1000000);
  EXPECT_EQ(router.shard(0).restarts(), 1u);
  EXPECT_FALSE(router.IsTripped(0));
  EXPECT_EQ(supervisor.health(0), ShardHealth::kHealthy);
  const ServeReply rescued = orphan.get();
  EXPECT_EQ(rescued.vehicle, expected);
  EXPECT_FALSE(rescued.shed);
  router.Stop();
}

TEST(ShardSupervisorTest, StuckShardTripsBreakerThenRecovers) {
  ChaosConfig chaos;
  chaos.stall_prob = 0.25;
  chaos.stall_us = 400000;  // One 400 ms wedge at (shard 0, tick 0).
  chaos.seed = FindSeedWithLoneFault(chaos, ChaosAction::kStall,
                                     /*shards=*/2, /*ticks=*/8);
  ASSERT_NE(chaos.seed, 0u);

  const AgentConfig config = MakeStDdqnConfig(41);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.max_batch = 1;  // The second request stays queued.
  serve_config.shard.max_wait_us = 100;
  serve_config.shard.chaos = chaos;
  ShardRouter router(serve_config, &models);

  SupervisorConfig sup_config;
  sup_config.stuck_after_ms = 50;
  sup_config.breaker.failure_threshold = 1;
  sup_config.breaker.backoff.initial_backoff_ms = 30;
  ShardSupervisor supervisor(sup_config, &router);

  Instance inst = MakeTestInstance(BusyOrders(2), 4);
  inst.name = CampusOnShard(router, 0);
  const FixedContext fixed(&inst);
  const int expected = LocalChoice(config, fixed.context);

  // First request is popped at tick 0 and wedges the loop for 400 ms; the
  // second waits behind it — a stale heartbeat WITH queued work.
  std::future<ServeReply> wedged = router.Submit(fixed.context);
  std::future<ServeReply> waiting = router.Submit(fixed.context);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  supervisor.ScanOnce(MonotonicNanos());
  EXPECT_EQ(supervisor.health(0), ShardHealth::kStuck);
  EXPECT_TRUE(router.IsTripped(0));
  EXPECT_FALSE(router.shard(0).crashed());  // Stuck, not dead: no restart.
  EXPECT_EQ(router.shard(0).restarts(), 0u);
  EXPECT_EQ(RegistryGauge("serve.shard0.health"), 1.0);

  // While tripped, the campus's new traffic runs on the stand-in.
  const ServeReply diverted = router.Submit(fixed.context).get();
  EXPECT_EQ(diverted.shard, 1);
  EXPECT_EQ(diverted.vehicle, expected);
  EXPECT_GE(router.shard(0).rerouted(), 1u);

  // A stall is transient by nature: the wedged batch and the queued one
  // both complete once the sleep ends — late, but with model answers.
  const ServeReply first = wedged.get();
  const ServeReply second = waiting.get();
  EXPECT_EQ(first.vehicle, expected);
  EXPECT_EQ(second.vehicle, expected);
  EXPECT_FALSE(first.shed);
  EXPECT_FALSE(second.shed);

  // Healthy scan past the breaker's open window (synthetic future time —
  // an idle loop's heartbeat age is irrelevant when its queue is empty):
  // half-open probe succeeds, breaker closes, partition restored.
  supervisor.ScanOnce(MonotonicNanos() + int64_t{10} * 1000000000);
  EXPECT_EQ(supervisor.health(0), ShardHealth::kHealthy);
  EXPECT_FALSE(router.IsTripped(0));
  EXPECT_EQ(RegistryGauge("serve.shard0.breaker_state"), 0.0);

  const ServeReply resumed = router.Submit(fixed.context).get();
  EXPECT_EQ(resumed.shard, 0);
  EXPECT_EQ(resumed.vehicle, expected);
  router.Stop();
}

// ---------------------------------------------------------------------------
// ModelServer: checkpoint quarantine
// ---------------------------------------------------------------------------

TEST(ModelServerQuarantineTest, PersistentCrcFailureIsRenamedToBad) {
  const fs::path dir = MakeScratchDir("quarantine");
  const AgentConfig config = MakeStDdqnConfig(43);
  DqnFleetAgent agent(config, "producer");
  ASSERT_TRUE(SaveCheckpoint((dir / "good.ckpt").string(), 4, agent, 4).ok());
  {
    // Torn file: valid prefix, truncated body — fails its CRC every probe.
    std::ifstream in(dir / "good.ckpt", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream torn(dir / "torn.ckpt", std::ios::binary);
    torn.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  const double rejected_before = RegistryCounter("serve.ckpt_rejected");
  ModelServer models(config);
  // Probes 1 and 2: the torn file is retried (it could be a writer race
  // that resolves) and left in place.
  EXPECT_EQ(models.PollOnce(dir.string()), 1);  // good.ckpt loads fine.
  EXPECT_EQ(models.current_seq(), 4u);
  EXPECT_TRUE(fs::exists(dir / "torn.ckpt"));
  EXPECT_EQ(models.PollOnce(dir.string()), 0);
  EXPECT_TRUE(fs::exists(dir / "torn.ckpt"));
  EXPECT_EQ(RegistryCounter("serve.ckpt_rejected") - rejected_before, 0.0);

  // Probe 3 hits the limit: the file is quarantined out of the watcher's
  // glob as *.bad and counted exactly once.
  EXPECT_EQ(models.PollOnce(dir.string()), 0);
  EXPECT_FALSE(fs::exists(dir / "torn.ckpt"));
  EXPECT_TRUE(fs::exists(dir / "torn.ckpt.bad"));
  EXPECT_EQ(RegistryCounter("serve.ckpt_rejected") - rejected_before, 1.0);
  // Renamed away, not skip-listed: the in-memory list is only the
  // read-only-directory fallback.
  EXPECT_FALSE(models.IsQuarantined((dir / "torn.ckpt").string()));

  // Later polls neither re-count nor resurrect it.
  EXPECT_EQ(models.PollOnce(dir.string()), 0);
  EXPECT_EQ(RegistryCounter("serve.ckpt_rejected") - rejected_before, 1.0);
  EXPECT_EQ(models.current_seq(), 4u);
  fs::remove_all(dir);
}

TEST(ModelServerQuarantineTest, ReplacedFileGetsAFreshProbeStreak) {
  const fs::path dir = MakeScratchDir("replaced");
  const AgentConfig config = MakeStDdqnConfig(45);
  DqnFleetAgent agent(config, "producer");
  {
    std::ofstream junk(dir / "model.ckpt", std::ios::binary);
    junk << "garbage bytes, not a checkpoint";
  }

  const double rejected_before = RegistryCounter("serve.ckpt_rejected");
  ModelServer models(config);
  // Two strikes against the garbage content...
  EXPECT_EQ(models.PollOnce(dir.string()), 0);
  EXPECT_EQ(models.PollOnce(dir.string()), 0);
  // ...then the trainer overwrites the path with a real checkpoint. The
  // size/mtime fingerprint changes, so the streak resets instead of the
  // third poll quarantining a now-valid file.
  ASSERT_TRUE(
      SaveCheckpoint((dir / "model.ckpt").string(), 9, agent, 9).ok());
  EXPECT_EQ(models.PollOnce(dir.string()), 1);
  EXPECT_EQ(models.current_seq(), 9u);
  EXPECT_TRUE(fs::exists(dir / "model.ckpt"));
  EXPECT_EQ(RegistryCounter("serve.ckpt_rejected") - rejected_before, 0.0);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Randomized kill/restart soak: zero lost replies, exact rollups
// ---------------------------------------------------------------------------

TEST(ChaosSoakTest, RandomizedKillRestartLosesNoReplies) {
  const AgentConfig config = MakeStDdqnConfig(47);
  ModelServer models(config);

  ShardedServeConfig serve_config;
  serve_config.num_shards = 3;
  serve_config.shard.max_batch = 4;
  serve_config.shard.max_wait_us = 200;
  serve_config.shard.queue_capacity = 64;
  serve_config.shard.chaos.seed = 4242;
  serve_config.shard.chaos.crash_prob = 0.15;
  serve_config.shard.chaos.stall_prob = 0.10;
  serve_config.shard.chaos.stall_us = 2000;
  serve_config.shard.chaos.slow_prob = 0.10;
  serve_config.shard.chaos.slow_us = 500;
  ShardRouter router(serve_config, &models);

  SupervisorConfig sup_config;
  sup_config.watchdog_period_ms = 2;
  sup_config.stuck_after_ms = 100;
  sup_config.breaker.failure_threshold = 2;
  sup_config.breaker.backoff.initial_backoff_ms = 5;
  sup_config.breaker.backoff.max_backoff_ms = 40;
  ShardSupervisor supervisor(sup_config, &router);
  supervisor.Start();

  const std::vector<std::string> agg_names = {
      "serve.requests",      "serve.shed",     "serve.shed_closed",
      "serve.batches",       "serve.degraded", "serve.deadline_exceeded",
      "serve.batched_items", "serve.rerouted", "serve.restarts"};
  std::vector<double> agg_before, shard_before;
  for (const std::string& name : agg_names) {
    agg_before.push_back(RegistryCounter(name));
    double sum = 0.0;
    for (int k = 0; k < serve_config.num_shards; ++k) {
      sum += RegistryCounter("serve.shard" + std::to_string(k) +
                             name.substr(5));
    }
    shard_before.push_back(sum);
  }

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 40;
  std::vector<Instance> campuses;
  campuses.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    Instance inst = MakeTestInstance(BusyOrders(2), 4);
    inst.name = "campus-" + std::to_string(c);
    campuses.push_back(std::move(inst));
  }
  std::vector<std::unique_ptr<FixedContext>> contexts;
  for (int c = 0; c < kClients; ++c) {
    contexts.push_back(std::make_unique<FixedContext>(&campuses[c]));
  }
  const int expected = LocalChoice(config, contexts[0]->context);

  std::atomic<long> unanswered{0};
  std::atomic<long> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        std::future<ServeReply> fut = router.Submit(contexts[c]->context);
        if (fut.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
          ++unanswered;  // A lost promise: the one absolute failure.
          continue;
        }
        const ServeReply reply = fut.get();
        // Shed replies (and there should be none in this shape — queues
        // are deep and nothing closes mid-soak) carry the greedy fallback;
        // everything else must be the model's answer, whichever shard
        // computed it and however many hops the request took.
        const int want =
            (reply.shed || reply.deadline_exceeded) ? 0 : expected;
        if (reply.vehicle != want) ++wrong;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  supervisor.Stop();  // Always before the router (restart/teardown race).
  router.Stop();

  EXPECT_EQ(unanswered.load(), 0) << "a client promise was lost";
  EXPECT_EQ(wrong.load(), 0) << "a reply matched neither the model nor "
                                "the greedy fallback";

  // The chaos schedule at this seed kills shards repeatedly; every kill
  // must have been supervised back up with its orphans rerouted.
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.total.requests,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_GE(stats.total.restarts, 1u);
  EXPECT_GE(stats.total.rerouted, 1u);

  // Exact rollups even under chaos: for every counter family the
  // aggregate's delta equals the per-shard deltas' sum — reroutes, sheds
  // and restarts included. This is the accounting discipline (count once,
  // always in pairs) surviving arbitrary failover interleavings.
  for (size_t i = 0; i < agg_names.size(); ++i) {
    double shard_sum = 0.0;
    for (int k = 0; k < serve_config.num_shards; ++k) {
      shard_sum += RegistryCounter("serve.shard" + std::to_string(k) +
                                   agg_names[i].substr(5));
    }
    EXPECT_EQ(RegistryCounter(agg_names[i]) - agg_before[i],
              shard_sum - shard_before[i])
        << agg_names[i] << " rollup diverged from its per-shard sum";
  }
}

}  // namespace
}  // namespace dpdp::serve
