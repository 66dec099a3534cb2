#include <gtest/gtest.h>

#include "rl/config.h"
#include "rl/replay.h"
#include "rl/state.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

DispatchContext MakeContext(const Instance* inst) {
  DispatchContext ctx;
  ctx.instance = inst;
  ctx.order = &inst->orders[0];
  ctx.now = 125.0;
  ctx.time_interval = 12;
  VehicleOption feasible;
  feasible.vehicle = 0;
  feasible.feasible = true;
  feasible.used = true;
  feasible.current_length = 25.0;
  feasible.new_length = 35.0;
  feasible.incremental_length = 10.0;
  feasible.st_score = 0.4;
  feasible.position = {3.0, 4.0};
  VehicleOption infeasible;
  infeasible.vehicle = 1;
  infeasible.feasible = false;
  infeasible.position = {1.0, 1.0};
  ctx.options = {feasible, infeasible};
  ctx.num_feasible = 1;
  return ctx;
}

TEST(FleetState, FeaturesNormalizedPerConfig) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 125.0, 400.0)});
  AgentConfig config;
  config.length_norm_km = 50.0;
  config.use_st_score = true;
  const DispatchContext ctx = MakeContext(&inst);
  const FleetState s = BuildFleetState(ctx, config);
  ASSERT_EQ(s.num_vehicles(), 2);
  EXPECT_DOUBLE_EQ(s.features(0, 0), 0.5);   // d / 50.
  EXPECT_DOUBLE_EQ(s.features(0, 1), 0.7);   // d' / 50.
  EXPECT_DOUBLE_EQ(s.features(0, 2), 0.4);   // ST Score.
  EXPECT_DOUBLE_EQ(s.features(0, 3), 1.0);   // Used flag.
  EXPECT_DOUBLE_EQ(s.features(0, 4), 12.0 / 144.0);
  EXPECT_DOUBLE_EQ(s.features(0, 5), 1.0);   // Delta d / 10.
  EXPECT_DOUBLE_EQ(s.positions(0, 0), 3.0);
}

TEST(FleetState, InfeasibleRowsCarrySentinels) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 125.0, 400.0)});
  const FleetState s = BuildFleetState(MakeContext(&inst), AgentConfig{});
  EXPECT_EQ(s.feasible[1], 0);
  for (int c = 0; c < kStateFeatures; ++c) {
    EXPECT_DOUBLE_EQ(s.features(1, c), -1.0);
  }
  EXPECT_EQ(s.NumFeasible(), 1);
  EXPECT_EQ(s.FeasibleIndices(), std::vector<int>{0});
  EXPECT_EQ(s.FeasibleFeatures().rows(), 1);
}

TEST(FleetState, StScoreZeroedWhenDisabled) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 125.0, 400.0)});
  AgentConfig config;
  config.use_st_score = false;
  const FleetState s = BuildFleetState(MakeContext(&inst), config);
  EXPECT_DOUBLE_EQ(s.features(0, 2), 0.0);
}

// ------------------------------------------------------------- Adjacency --

TEST(Adjacency, SelfLoopsAlwaysPresent) {
  nn::Matrix pos(3, 2);
  const nn::Matrix adj = BuildNeighborAdjacency(pos, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(adj(i, i), 1.0);
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(adj(i, j), 0.0);
      }
    }
  }
}

TEST(Adjacency, PicksNearestNeighborsByEuclideanDistance) {
  // Vehicles on a line at x = 0, 1, 5, 6.
  nn::Matrix pos(4, 2);
  pos(1, 0) = 1.0;
  pos(2, 0) = 5.0;
  pos(3, 0) = 6.0;
  const nn::Matrix adj = BuildNeighborAdjacency(pos, 1);
  EXPECT_DOUBLE_EQ(adj(0, 1), 1.0);  // 0's nearest is 1.
  EXPECT_DOUBLE_EQ(adj(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(adj(2, 3), 1.0);  // 2's nearest is 3.
  EXPECT_DOUBLE_EQ(adj(3, 2), 1.0);
}

TEST(Adjacency, NeighborCountCapped) {
  Rng rng(5);
  nn::Matrix pos(10, 2);
  for (int i = 0; i < 10; ++i) {
    pos(i, 0) = rng.Uniform();
    pos(i, 1) = rng.Uniform();
  }
  const nn::Matrix adj = BuildNeighborAdjacency(pos, 3);
  for (int i = 0; i < 10; ++i) {
    double row = 0.0;
    for (int j = 0; j < 10; ++j) row += adj(i, j);
    EXPECT_DOUBLE_EQ(row, 4.0);  // Self + 3 neighbors.
  }
}

TEST(Adjacency, MoreNeighborsThanVehiclesIsFullyConnected) {
  nn::Matrix pos(3, 2);
  pos(1, 0) = 1.0;
  pos(2, 0) = 2.0;
  const nn::Matrix adj = BuildNeighborAdjacency(pos, 10);
  EXPECT_DOUBLE_EQ(adj.SumAll(), 9.0);
}

TEST(SubFleetInputs, GathersRowsAndBuildsAdjacency) {
  Rng rng(3);
  FleetState state;
  state.features = nn::Matrix(4, kStateFeatures);
  state.positions = nn::Matrix(4, 2);
  state.feasible = {1, 0, 1, 1};
  for (int v = 0; v < 4; ++v) {
    for (int c = 0; c < kStateFeatures; ++c) {
      state.features(v, c) = v * 10.0 + c;
    }
    state.positions(v, 0) = v * 1.0;
  }
  const std::vector<int> idx = state.FeasibleIndices();
  ASSERT_EQ(idx, (std::vector<int>{0, 2, 3}));

  const SubFleetInputs no_graph =
      BuildSubFleetInputs(state, idx, /*use_graph=*/false, 2);
  EXPECT_EQ(no_graph.features.rows(), 3);
  EXPECT_TRUE(no_graph.adjacency.empty());
  EXPECT_DOUBLE_EQ(no_graph.features(1, 0), 20.0);  // Row of vehicle 2.

  const SubFleetInputs graph =
      BuildSubFleetInputs(state, idx, /*use_graph=*/true, 1);
  EXPECT_EQ(graph.adjacency.rows(), 3);
  // Vehicle 2 (sub-row 1) is nearest to vehicle 3 (sub-row 2).
  EXPECT_DOUBLE_EQ(graph.adjacency(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(graph.adjacency(1, 1), 1.0);  // Self loop.
}

// ---------------------------------------------------------------- Replay --

FleetState RandomState(Rng* rng, int k) {
  FleetState s;
  s.features = nn::Matrix(k, kStateFeatures);
  s.positions = nn::Matrix(k, 2);
  s.feasible.assign(k, 0);
  for (int v = 0; v < k; ++v) {
    s.feasible[v] = rng->Bernoulli(0.7) ? 1 : 0;
    for (int c = 0; c < kStateFeatures; ++c) {
      s.features(v, c) = rng->Uniform();
    }
    s.positions(v, 0) = rng->Uniform();
    s.positions(v, 1) = rng->Uniform();
  }
  return s;
}

TEST(Replay, StoredStateRoundTrips) {
  Rng rng(9);
  const FleetState s = RandomState(&rng, 7);
  const FleetState back =
      StoredFleetState::FromFleetState(s).ToFleetState();
  EXPECT_EQ(back.feasible, s.feasible);
  EXPECT_TRUE(back.features.AllClose(s.features, 1e-6));  // Float storage.
  EXPECT_TRUE(back.positions.AllClose(s.positions, 1e-6));
}

TEST(Replay, RingBufferEvictsOldest) {
  ReplayBuffer buffer(3);
  Rng rng(1);
  for (int i = 0; i < 5; ++i) {
    Transition t;
    t.state = StoredFleetState::FromFleetState(RandomState(&rng, 2));
    t.action = i;
    buffer.Add(std::move(t));
  }
  EXPECT_EQ(buffer.size(), 3);
  std::set<int> actions;
  for (int i = 0; i < buffer.size(); ++i) actions.insert(buffer.at(i).action);
  EXPECT_EQ(actions, (std::set<int>{2, 3, 4}));
}

TEST(Replay, SampleReturnsStoredPointers) {
  ReplayBuffer buffer(10);
  Rng rng(2);
  for (int i = 0; i < 4; ++i) {
    Transition t;
    t.state = StoredFleetState::FromFleetState(RandomState(&rng, 2));
    t.action = i;
    buffer.Add(std::move(t));
  }
  const auto batch = buffer.Sample(16, &rng);
  EXPECT_EQ(batch.size(), 16u);
  for (const Transition* t : batch) {
    EXPECT_GE(t->action, 0);
    EXPECT_LT(t->action, 4);
  }
}

TEST(Replay, EmptyStoredStateFlag) {
  StoredFleetState empty;
  EXPECT_TRUE(empty.empty());
  Rng rng(3);
  EXPECT_FALSE(
      StoredFleetState::FromFleetState(RandomState(&rng, 1)).empty());
}

}  // namespace
}  // namespace dpdp
