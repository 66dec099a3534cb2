#include <gtest/gtest.h>

#include <cmath>

#include "baselines/greedy_baselines.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "sim/environment.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

std::vector<Order> Stream() {
  return {MakeOrder(0, 1, 2, 10.0, 5.0, 400.0),
          MakeOrder(1, 3, 4, 10.0, 12.0, 400.0),
          MakeOrder(2, 2, 3, 10.0, 47.0, 500.0),
          MakeOrder(3, 1, 4, 10.0, 95.0, 600.0)};
}

TEST(Buffering, ImmediateServiceHasZeroResponse) {
  const Instance inst = MakeTestInstance(Stream(), 3);
  Environment env(&inst);
  MinIncrementalLengthDispatcher b1;
  const EpisodeResult r = RunEpisode(&env, &b1);
  EXPECT_DOUBLE_EQ(r.mean_response_min, 0.0);
}

TEST(Buffering, WindowDelaysDecisionsToBoundary) {
  const Instance inst = MakeTestInstance(Stream(), 3);
  SimulatorConfig config;
  config.buffer_window_min = 30.0;
  Environment env(&inst, config);

  class TimeSpy : public Dispatcher {
   public:
    const char* name() const override { return "spy"; }
    int Act(const DispatchContext& ctx) override {
      decision_times.push_back(ctx.now);
      for (const VehicleOption& o : ctx.options) {
        if (o.feasible) return o.vehicle;
      }
      return -1;
    }
    std::vector<double> decision_times;
  };
  TimeSpy spy;
  const EpisodeResult r = RunEpisode(&env, &spy);
  // Orders at 5 and 12 flush at 30; order at 47 flushes at 60; 95 at 120.
  ASSERT_EQ(spy.decision_times.size(), 4u);
  EXPECT_DOUBLE_EQ(spy.decision_times[0], 30.0);
  EXPECT_DOUBLE_EQ(spy.decision_times[1], 30.0);
  EXPECT_DOUBLE_EQ(spy.decision_times[2], 60.0);
  EXPECT_DOUBLE_EQ(spy.decision_times[3], 120.0);
  // Mean response = mean(25, 18, 13, 25).
  EXPECT_NEAR(r.mean_response_min, (25.0 + 18.0 + 13.0 + 25.0) / 4.0, 1e-9);
}

TEST(Buffering, TightDeadlineBecomesUnservableUnderBuffering) {
  // Deadline at minute 40; with a 30-minute buffer the decision happens at
  // 30, leaving 10 minutes — not enough for the 20-minute drive.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 2.0, 40.0)}, 1);
  MinIncrementalLengthDispatcher b1;

  Environment immediate(&inst);
  EXPECT_TRUE(RunEpisode(&immediate, &b1).all_served());

  SimulatorConfig config;
  config.buffer_window_min = 30.0;
  Environment buffered(&inst, config);
  EXPECT_FALSE(RunEpisode(&buffered, &b1).all_served());
}

TEST(Buffering, CostsComparableToImmediateOnSlackWindows) {
  // With generous deadlines, buffering shouldn't change costs drastically
  // (the paper's finding: no obvious cost reduction, longer response).
  const Instance inst = MakeTestInstance(Stream(), 3);
  MinIncrementalLengthDispatcher b1;

  Environment immediate(&inst);
  const EpisodeResult a = RunEpisode(&immediate, &b1);

  SimulatorConfig config;
  config.buffer_window_min = 10.0;
  Environment buffered(&inst, config);
  const EpisodeResult b = RunEpisode(&buffered, &b1);

  EXPECT_TRUE(a.all_served());
  EXPECT_TRUE(b.all_served());
  EXPECT_LT(std::abs(a.total_cost - b.total_cost), 0.8 * a.total_cost);
  EXPECT_GT(b.mean_response_min, 0.0);
}

// ----------------------- constraint embedding ablation --------------------

TEST(ConstraintEmbedding, DisabledVariantStillDispatchesFeasibly) {
  const Instance inst = MakeTestInstance(Stream(), 3);
  AgentConfig config = MakeStDdgnConfig(9);
  config.use_constraint_embedding = false;
  DqnFleetAgent agent(config, "ST-DDGN-masked");
  Environment env(&inst);
  const EpisodeResult r = RunEpisode(&env, &agent);
  EXPECT_TRUE(r.all_served());
}

TEST(ConstraintEmbedding, DisabledVariantTrains) {
  const Instance inst = MakeTestInstance(Stream(), 3);
  AgentConfig config = MakeDdqnConfig(9);
  config.use_constraint_embedding = false;
  config.epsilon_decay_episodes = 5;
  DqnFleetAgent agent(config, "DDQN-masked");
  agent.set_training(true);
  Environment env(&inst);
  for (int e = 0; e < 8; ++e) (void)RunEpisode(&env, &agent);
  agent.set_training(false);
  EXPECT_TRUE(RunEpisode(&env, &agent).all_served());
  EXPECT_EQ(agent.episodes_trained(), 8);
}

TEST(ConstraintEmbedding, QValuesOfInfeasibleVehiclesStayMinusInf) {
  // Even when the network scores the whole fleet, infeasible vehicles must
  // never be selectable.
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 10.0, 0.0, 25.0),
                        MakeOrder(1, 4, 3, 10.0, 0.0, 40.0)},
                       2);
  AgentConfig config = MakeStDdgnConfig(3);
  config.use_constraint_embedding = false;

  class Probe : public Dispatcher {
   public:
    explicit Probe(DqnFleetAgent* agent) : agent_(agent) {}
    const char* name() const override { return "probe"; }
    int Act(const DispatchContext& ctx) override {
      const std::vector<double> q = agent_->QValues(ctx);
      for (size_t v = 0; v < q.size(); ++v) {
        if (!ctx.options[v].feasible) {
          EXPECT_TRUE(std::isinf(q[v]) && q[v] < 0.0);
        }
      }
      return agent_->Act(ctx);
    }
    DqnFleetAgent* agent_;
  };
  DqnFleetAgent agent(config, "masked");
  Probe probe(&agent);
  Environment env(&inst);
  const EpisodeResult r = RunEpisode(&env, &probe);
  EXPECT_GE(r.num_served, 1);
}

}  // namespace
}  // namespace dpdp
