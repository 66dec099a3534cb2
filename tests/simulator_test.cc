#include <gtest/gtest.h>

#include "baselines/greedy_baselines.h"
#include "sim/environment.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

std::vector<Order> SmallDay() {
  return {MakeOrder(0, 1, 2, 10.0, 10.0, 400.0),
          MakeOrder(1, 3, 4, 20.0, 30.0, 400.0),
          MakeOrder(2, 2, 3, 15.0, 60.0, 500.0),
          MakeOrder(3, 1, 4, 5.0, 90.0, 600.0)};
}

TEST(RunEpisodeTest, ServesAllOrdersWithBaseline) {
  const Instance inst = MakeTestInstance(SmallDay(), /*num_vehicles=*/3);
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);
  EXPECT_EQ(r.num_orders, 4);
  EXPECT_EQ(r.num_served, 4);
  EXPECT_EQ(r.num_unserved, 0);
  EXPECT_TRUE(r.all_served());
  EXPECT_GE(r.nuv, 1.0);
  EXPECT_LE(r.nuv, 3.0);
}

TEST(RunEpisodeTest, TotalCostFormula) {
  const Instance inst = MakeTestInstance(SmallDay(), 3);
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);
  EXPECT_NEAR(r.total_cost,
              inst.vehicle_config.fixed_cost * r.nuv +
                  inst.vehicle_config.cost_per_km * r.total_travel_length,
              1e-9);
  EXPECT_GT(r.total_travel_length, 0.0);
}

TEST(RunEpisodeTest, DeterministicAcrossRuns) {
  const Instance inst = MakeTestInstance(SmallDay(), 3);
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult a = RunEpisode(&env, &baseline);
  const EpisodeResult b = RunEpisode(&env, &baseline);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.nuv, b.nuv);
  EXPECT_DOUBLE_EQ(a.total_travel_length, b.total_travel_length);
}

TEST(RunEpisodeTest, SingleOrderCostIsExact) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 400.0)}, 1);
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);
  EXPECT_DOUBLE_EQ(r.nuv, 1.0);
  EXPECT_DOUBLE_EQ(r.total_travel_length, 40.0);  // 10 + 10 + 20 back.
  EXPECT_DOUBLE_EQ(r.total_cost, 300.0 + 2.0 * 40.0);
}

TEST(RunEpisodeTest, ImpossibleOrderCountsUnserved) {
  // Deadline earlier than any possible arrival.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 12.0),
                        MakeOrder(1, 1, 2, 10.0, 20.0, 400.0)},
                       2);
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);
  EXPECT_EQ(r.num_unserved, 1);
  EXPECT_EQ(r.num_served, 1);
  EXPECT_FALSE(r.all_served());
}

TEST(RunEpisodeTest, NoInterferenceWithCommittedStop) {
  // Order 0 sends the vehicle depot -> F1 -> F2. Order 1 (created while
  // the vehicle drives toward F1) picks up at F3. The committed leg to F1
  // must not change: the vehicle's final route still visits F1 first.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 400.0),
                        MakeOrder(1, 3, 4, 10.0, 5.0, 400.0)},
                       1);
  SimulatorConfig config;
  Environment env(&inst, config);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);
  EXPECT_EQ(r.num_served, 2);
}

TEST(RunEpisodeTest, CapacityDistributionMatchesVisits) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 400.0)}, 1);
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  (void)RunEpisode(&env, &baseline);
  const nn::Matrix cap = env.LastCapacityDistribution();
  EXPECT_EQ(cap.rows(), 4);
  EXPECT_EQ(cap.cols(), 144);
  // Visit 1: F1 (ordinal 0) at minute 10, residual 100. Visit 2: F2
  // (ordinal 1) at minute 20, residual 90.
  EXPECT_DOUBLE_EQ(cap(0, 1), 100.0);
  EXPECT_DOUBLE_EQ(cap(1, 2), 90.0);
  EXPECT_DOUBLE_EQ(cap.SumAll(), 190.0);
}

TEST(RunEpisodeTest, StScoreExposedWhenStdProvided) {
  const Instance inst = MakeTestInstance(SmallDay(), 2);

  class Recorder : public Dispatcher {
   public:
    const char* name() const override { return "recorder"; }
    int Act(const DispatchContext& ctx) override {
      for (const VehicleOption& opt : ctx.options) {
        if (opt.feasible) {
          last_st_score = opt.st_score;
          return opt.vehicle;
        }
      }
      return -1;
    }
    double last_st_score = -1.0;
  };

  // Without a predicted STD, scores are 0.
  {
    Environment env(&inst);
    Recorder rec;
    (void)RunEpisode(&env, &rec);
    EXPECT_DOUBLE_EQ(rec.last_st_score, 0.0);
  }
  // With a skewed STD, scores are positive.
  {
    SimulatorConfig config;
    config.predicted_std = nn::Matrix(4, 144, 0.0);
    config.predicted_std(0, 0) = 100.0;
    Environment env(&inst, config);
    Recorder rec;
    (void)RunEpisode(&env, &rec);
    EXPECT_GT(rec.last_st_score, 0.0);
  }
}

TEST(RunEpisodeTest, ContextReportsFeasibilityAndInterval) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 125.0, 500.0)}, 2);

  class Checker : public Dispatcher {
   public:
    const char* name() const override { return "checker"; }
    int Act(const DispatchContext& ctx) override {
      EXPECT_EQ(ctx.time_interval, 12);  // Minute 125 -> interval 12.
      EXPECT_EQ(ctx.options.size(), 2u);
      EXPECT_EQ(ctx.num_feasible, 2);
      for (const VehicleOption& opt : ctx.options) {
        EXPECT_TRUE(opt.feasible);
        EXPECT_FALSE(opt.used);
        EXPECT_DOUBLE_EQ(opt.current_length, 0.0);
        EXPECT_DOUBLE_EQ(opt.new_length, 40.0);
        EXPECT_DOUBLE_EQ(opt.incremental_length, 40.0);
      }
      return 0;
    }
  };
  Environment env(&inst);
  Checker checker;
  (void)RunEpisode(&env, &checker);
}

TEST(RunEpisodeTest, FleetResetBetweenEpisodes) {
  const Instance inst = MakeTestInstance(SmallDay(), 3);
  Environment env(&inst);
  MaxAcceptedOrdersDispatcher baseline;
  const EpisodeResult a = RunEpisode(&env, &baseline);
  // Second run must not inherit used vehicles or routes.
  const EpisodeResult b = RunEpisode(&env, &baseline);
  EXPECT_DOUBLE_EQ(a.nuv, b.nuv);
  EXPECT_DOUBLE_EQ(a.total_travel_length, b.total_travel_length);
}

TEST(RunEpisodeTest, RecordsOrderAssignmentAndRoutes) {
  const Instance inst = MakeTestInstance(SmallDay(), 3);
  SimulatorConfig config;
  config.record_plan = true;
  Environment env(&inst, config);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);
  ASSERT_EQ(r.order_assignment.size(), 4u);
  ASSERT_EQ(r.routes.size(), 3u);
  // Every served order appears exactly once as pickup and once as
  // delivery in its assigned vehicle's route (OA consistent with RP).
  for (int o = 0; o < r.num_orders; ++o) {
    const int v = r.order_assignment[o];
    ASSERT_GE(v, 0);
    int pickups = 0;
    int deliveries = 0;
    for (const Stop& s : r.routes[v]) {
      if (s.order_id != o) continue;
      pickups += (s.type == StopType::kPickup);
      deliveries += (s.type == StopType::kDelivery);
    }
    EXPECT_EQ(pickups, 1) << "order " << o;
    EXPECT_EQ(deliveries, 1) << "order " << o;
  }
  // Unused vehicles have empty routes.
  for (size_t v = 0; v < r.routes.size(); ++v) {
    if (r.routes[v].empty()) continue;
    bool assigned = false;
    for (int o = 0; o < r.num_orders; ++o) {
      assigned |= (r.order_assignment[o] == static_cast<int>(v));
    }
    EXPECT_TRUE(assigned);
  }
  // The independent brute-force oracle agrees that every executed route
  // satisfies LIFO, capacity and time-window constraints.
  EXPECT_TRUE(dpdp::testing::CheckEpisodeFeasible(inst, r));
}

TEST(RunEpisodeTest, PlanNotRecordedByDefault) {
  const Instance inst = MakeTestInstance(SmallDay(), 3);
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);
  EXPECT_TRUE(r.order_assignment.empty());
  EXPECT_TRUE(r.routes.empty());
}

// -------------------------- context buffers reused across decisions -------

void ExpectSameContext(const DispatchContext& got,
                       const DispatchContext& want) {
  EXPECT_EQ(got.order->id, want.order->id);
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.time_interval, want.time_interval);
  EXPECT_EQ(got.num_feasible, want.num_feasible);
  ASSERT_EQ(got.options.size(), want.options.size());
  for (size_t v = 0; v < want.options.size(); ++v) {
    SCOPED_TRACE(::testing::Message() << "vehicle " << v);
    const VehicleOption& a = got.options[v];
    const VehicleOption& b = want.options[v];
    EXPECT_EQ(a.vehicle, b.vehicle);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.used, b.used);
    EXPECT_EQ(a.num_assigned_orders, b.num_assigned_orders);
    EXPECT_EQ(a.current_length, b.current_length);
    EXPECT_EQ(a.new_length, b.new_length);
    EXPECT_EQ(a.incremental_length, b.incremental_length);
    EXPECT_EQ(a.st_score, b.st_score);
    EXPECT_EQ(a.position, b.position);
    const Insertion& x = a.insertion;
    const Insertion& y = b.insertion;
    EXPECT_EQ(x.pickup_pos, y.pickup_pos);
    EXPECT_EQ(x.delivery_pos, y.delivery_pos);
    EXPECT_EQ(x.suffix, y.suffix);
    ASSERT_EQ(x.schedule.stops.size(), y.schedule.stops.size());
    for (size_t s = 0; s < y.schedule.stops.size(); ++s) {
      EXPECT_EQ(x.schedule.stops[s].arrival, y.schedule.stops[s].arrival);
      EXPECT_EQ(x.schedule.stops[s].service_start,
                y.schedule.stops[s].service_start);
      EXPECT_EQ(x.schedule.stops[s].departure, y.schedule.stops[s].departure);
    }
    EXPECT_EQ(x.schedule.residual_capacity, y.schedule.residual_capacity);
    EXPECT_EQ(x.schedule.length, y.schedule.length);
    EXPECT_EQ(x.schedule.completion_time, y.schedule.completion_time);
    EXPECT_EQ(x.old_length, y.old_length);
    EXPECT_EQ(x.incremental_length, y.incremental_length);
    if (!a.feasible) {
      // An infeasible option carries an empty insertion, never a stale one.
      EXPECT_EQ(x.pickup_pos, -1);
      EXPECT_TRUE(x.suffix.empty());
      EXPECT_TRUE(x.schedule.stops.empty());
      EXPECT_TRUE(x.schedule.residual_capacity.empty());
    }
  }
}

// The environment builds each decision's context in place, reusing the
// option and insertion buffers of earlier decisions and episodes. Under
// breakdowns (held vehicles turn infeasible, their orders are re-planned)
// and cancellations, every context of a second episode must equal, field
// by field, the context of a fresh environment replayed through the same
// executed choices.
TEST(RunEpisodeTest, ReusedContextMatchesFreshEnvironment) {
  int breakdowns = 0;
  int replanned = 0;
  int cancelled = 0;
  int turned_infeasible = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    std::vector<Order> orders;
    for (int i = 0; i < 48; ++i) {
      const int pickup = rng.UniformInt(1, 4);
      int delivery = rng.UniformInt(1, 4);
      while (delivery == pickup) delivery = rng.UniformInt(1, 4);
      const double t = rng.Uniform(0.0, 1200.0);
      orders.push_back(MakeOrder(i, pickup, delivery, rng.Uniform(5.0, 45.0),
                                 t, t + rng.Uniform(200.0, 600.0)));
    }
    // Slow vehicles keep several stops planned, so a breakdown or a
    // cancellation finds pickups still in the free suffix.
    Instance inst = MakeTestInstance(orders, 4);
    inst.vehicle_config.speed_kmph = 15.0;
    inst.vehicle_config.service_time_min = 10.0;
    SimulatorConfig config;
    config.predicted_std = nn::Matrix(4, 144, 1.0);
    for (int f = 0; f < 4; ++f) config.predicted_std(f, 3 * f + 5) = 40.0;
    config.disruption.seed = seed;
    config.disruption.breakdown_prob = 1.0;
    config.disruption.cancel_prob = 0.3;

    // Spreads orders over the fleet: the (t mod feasible)-th feasible
    // vehicle at decision t.
    auto choose = [](const DispatchContext& ctx, int t) {
      int skip = t % ctx.num_feasible;
      for (const VehicleOption& opt : ctx.options) {
        if (opt.feasible && skip-- == 0) return opt.vehicle;
      }
      return -1;
    };

    Environment env(&inst, config);
    MinIncrementalLengthDispatcher baseline;
    (void)RunEpisode(&env, &baseline);  // Grows every buffer once.
    env.Reset();
    std::vector<int> executed;
    std::vector<uint8_t> was_feasible(inst.num_vehicles(), 0);
    while (env.AdvanceToDecision()) {
      const DispatchContext& ctx = env.ObserveDecision();
      Environment fresh(&inst, config);
      fresh.set_episodes_run(1);
      fresh.Reset();
      for (const int vehicle : executed) {
        ASSERT_TRUE(fresh.AdvanceToDecision());
        fresh.Apply(vehicle);
      }
      ASSERT_TRUE(fresh.AdvanceToDecision());
      SCOPED_TRACE(::testing::Message() << "decision " << executed.size());
      ExpectSameContext(ctx, fresh.ObserveDecision());
      for (const VehicleOption& opt : ctx.options) {
        if (was_feasible[opt.vehicle] && !opt.feasible) ++turned_infeasible;
        was_feasible[opt.vehicle] = opt.feasible;
      }
      executed.push_back(
          env.Apply(choose(ctx, static_cast<int>(executed.size()))));
    }
    breakdowns += env.result().num_breakdowns;
    replanned += env.result().num_replanned;
    cancelled += env.result().num_cancelled;
  }
  // The sweep exercised what it is about.
  EXPECT_GT(breakdowns, 0);
  EXPECT_GT(replanned, 0);
  EXPECT_GT(cancelled, 0);
  EXPECT_GT(turned_infeasible, 0);
}

// ------------------------- randomized consistency sweep -------------------

class SimulatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorPropertyTest, MetricsConsistentOnRandomInstances) {
  Rng rng(GetParam());
  std::vector<Order> orders;
  const int n = rng.UniformInt(3, 12);
  for (int i = 0; i < n; ++i) {
    int pickup = rng.UniformInt(1, 4);
    int delivery = rng.UniformInt(1, 4);
    while (delivery == pickup) delivery = rng.UniformInt(1, 4);
    const double t = rng.Uniform(0.0, 600.0);
    orders.push_back(MakeOrder(i, pickup, delivery, rng.Uniform(1.0, 50.0),
                               t, t + rng.Uniform(60.0, 400.0)));
  }
  const Instance inst = MakeTestInstance(orders, rng.UniformInt(1, 4));
  Environment env(&inst);
  MinIncrementalLengthDispatcher baseline;
  const EpisodeResult r = RunEpisode(&env, &baseline);

  EXPECT_EQ(r.num_served + r.num_unserved, r.num_orders);
  EXPECT_LE(r.nuv, inst.num_vehicles());
  EXPECT_NEAR(r.total_cost,
              300.0 * r.nuv + 2.0 * r.total_travel_length, 1e-9);
  if (r.num_served > 0) {
    EXPECT_GT(r.nuv, 0.0);
    EXPECT_GT(r.total_travel_length, 0.0);
  }
  // Travel length can never be less than the incremental lengths summed
  // (greedy insertions relocate nothing).
  EXPECT_GE(r.total_travel_length + 1e-6, r.sum_incremental_length);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SimulatorPropertyTest,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace dpdp
