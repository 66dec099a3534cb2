#include <gtest/gtest.h>

#include <algorithm>

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
}

TEST(FleetState, StScoreZeroedWhenDisabled) {
  const Instance inst =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 125.0, 400.0)});
  AgentConfig config;
  config.use_st_score = false;
  const FleetState s = BuildFleetState(MakeContext(&inst), config);
  EXPECT_DOUBLE_EQ(s.features(0, 2), 0.0);
}

// ------------------------------------------------------------- Neighbors --

/// Row r of `g` as a list of column indices.
std::vector<int> Row(const nn::Neighbors& g, int r) {
  return std::vector<int>(g.cols.begin() + g.offsets[r],
                          g.cols.begin() + g.offsets[r + 1]);
}

nn::Neighbors NeighborsOf(const nn::Matrix& pos, int k) {
  nn::Neighbors g;
  AppendNeighbors(pos, k, 0, &g);
  return g;
}

TEST(Neighbors, SelfLoopsAlwaysPresent) {
  nn::Matrix pos(3, 2);
  const nn::Neighbors g = NeighborsOf(pos, 0);
  ASSERT_EQ(g.rows(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(Row(g, i), std::vector<int>{i});
}

TEST(Neighbors, PicksNearestNeighborsByEuclideanDistance) {
  // Vehicles on a line at x = 0, 1, 5, 6.
  nn::Matrix pos(4, 2);
  pos(1, 0) = 1.0;
  pos(2, 0) = 5.0;
  pos(3, 0) = 6.0;
  const nn::Neighbors g = NeighborsOf(pos, 1);
  EXPECT_EQ(Row(g, 0), (std::vector<int>{0, 1}));  // 0's nearest is 1.
  EXPECT_EQ(Row(g, 1), (std::vector<int>{0, 1}));
  EXPECT_EQ(Row(g, 2), (std::vector<int>{2, 3}));  // 2's nearest is 3.
  EXPECT_EQ(Row(g, 3), (std::vector<int>{2, 3}));
}

TEST(Neighbors, NeighborCountCapped) {
  Rng rng(5);
  nn::Matrix pos(10, 2);
  for (int i = 0; i < 10; ++i) {
    pos(i, 0) = rng.Uniform();
    pos(i, 1) = rng.Uniform();
  }
  const nn::Neighbors g = NeighborsOf(pos, 3);
  ASSERT_EQ(g.rows(), 10);
  EXPECT_EQ(g.edges(), 40);
  for (int i = 0; i < 10; ++i) {
    const std::vector<int> row = Row(g, i);
    EXPECT_EQ(row.size(), 4u);  // Self + 3 neighbors.
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    EXPECT_NE(std::find(row.begin(), row.end(), i), row.end());
  }
}

TEST(Neighbors, MoreNeighborsThanVehiclesIsFullyConnected) {
  nn::Matrix pos(3, 2);
  pos(1, 0) = 1.0;
  pos(2, 0) = 2.0;
  const nn::Neighbors g = NeighborsOf(pos, 10);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(Row(g, i), (std::vector<int>{0, 1, 2}));
}

TEST(Neighbors, EqualDistancesGoToTheLowestIndices) {
  // Idle vehicles share the depot's position: every distance ties, so
  // each row takes itself plus the two lowest other indices, ascending.
  nn::Matrix pos(5, 2, 3.5);
  const nn::Neighbors g = NeighborsOf(pos, 2);
  EXPECT_EQ(Row(g, 0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Row(g, 1), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Row(g, 2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Row(g, 3), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(Row(g, 4), (std::vector<int>{0, 1, 4}));
}

TEST(Neighbors, AppendShiftsColumnsByTheItemOffset) {
  nn::Matrix pos(2, 2);
  pos(1, 0) = 1.0;
  nn::Neighbors g;
  AppendNeighbors(pos, 1, 0, &g);
  AppendNeighbors(pos, 0, 2, &g);
  ASSERT_EQ(g.rows(), 4);
  EXPECT_EQ(Row(g, 1), (std::vector<int>{0, 1}));
  EXPECT_EQ(Row(g, 2), std::vector<int>{2});
  EXPECT_EQ(Row(g, 3), std::vector<int>{3});
}

// The all-pairs ranking AppendNeighbors replaced, kept as the slow,
// obviously correct reference: every other row ranked by (squared
// distance, index), the first k kept, each row sorted ascending.
void ReferenceNeighbors(const nn::Matrix& positions, int k, int offset,
                        nn::Neighbors* out) {
  const int m = positions.rows();
  std::vector<std::pair<double, int>> dist;
  for (int i = 0; i < m; ++i) {
    const size_t row_begin = out->cols.size();
    out->cols.push_back(offset + i);
    if (k > 0) {
      dist.clear();
      for (int j = 0; j < m; ++j) {
        if (j == i) continue;
        const double dx = positions(i, 0) - positions(j, 0);
        const double dy = positions(i, 1) - positions(j, 1);
        dist.emplace_back(dx * dx + dy * dy, j);
      }
      const int take = std::min<int>(k, static_cast<int>(dist.size()));
      std::partial_sort(dist.begin(), dist.begin() + take, dist.end());
      for (int t = 0; t < take; ++t) {
        out->cols.push_back(offset + dist[t].second);
      }
      std::sort(out->cols.begin() + row_begin, out->cols.end());
    }
    out->offsets.push_back(static_cast<int>(out->cols.size()));
  }
}

enum class Layout {
  kSites,     ///< Co-located rows: a depot site plus a few smaller sites.
  kDistinct,  ///< Every position distinct.
  kLattice,   ///< Integer lattice: equal distances across different sites.
  kTiny,      ///< Distinct positions whose squared differences underflow
              ///< to 0, so rows of other sites tie with the site mates.
};

nn::Matrix LayoutPositions(Layout layout, int m, Rng* rng) {
  nn::Matrix pos(m, 2);
  const int sites = rng->UniformInt(1, std::max(1, m / 6));
  nn::Matrix site(sites, 2);
  for (int s = 0; s < sites; ++s) {
    site(s, 0) = rng->Uniform(0.0, 8.0);
    site(s, 1) = rng->Uniform(0.0, 8.0);
  }
  for (int i = 0; i < m; ++i) {
    switch (layout) {
      case Layout::kSites: {
        const int s = rng->Bernoulli(0.4) ? 0 : rng->UniformInt(0, sites - 1);
        pos(i, 0) = site(s, 0);
        pos(i, 1) = site(s, 1);
        break;
      }
      case Layout::kDistinct:
        pos(i, 0) = rng->Uniform(0.0, 8.0);
        pos(i, 1) = rng->Uniform(0.0, 8.0);
        break;
      case Layout::kLattice:
        pos(i, 0) = rng->UniformInt(0, 4);
        pos(i, 1) = rng->UniformInt(0, 4);
        break;
      case Layout::kTiny:
        pos(i, 0) = 1e-170 * rng->UniformInt(0, 3);
        pos(i, 1) = 1e-170 * rng->UniformInt(0, 3);
        break;
    }
  }
  return pos;
}

TEST(NeighborsDifferential, MatchesAllPairsReference) {
  Rng rng(17);
  int cases = 0;
  std::vector<int> sizes;
  for (int m = 1; m <= 24; ++m) sizes.push_back(m);
  for (const int m : {31, 49, 64, 97, 133, 150, 160}) sizes.push_back(m);
  for (const int m : sizes) {
    for (const int k : {-1, 0, 1, 8, m - 2, m - 1, m + 3}) {
      for (const Layout layout : {Layout::kSites, Layout::kDistinct,
                                  Layout::kLattice, Layout::kTiny}) {
        const nn::Matrix pos = LayoutPositions(layout, m, &rng);
        // A previous item already in the graph, so columns are shifted.
        const int offset = rng.UniformInt(0, 5);
        nn::Neighbors expected;
        nn::Neighbors actual;
        for (int r = 0; r < offset; ++r) {
          expected.cols.push_back(r);
          expected.offsets.push_back(r + 1);
        }
        actual = expected;
        ReferenceNeighbors(pos, k, offset, &expected);
        AppendNeighbors(pos, k, offset, &actual);
        ASSERT_EQ(actual.offsets, expected.offsets)
            << "m=" << m << " k=" << k << " layout=" << int(layout);
        ASSERT_EQ(actual.cols, expected.cols)
            << "m=" << m << " k=" << k << " layout=" << int(layout);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, static_cast<int>(sizes.size()) * 7 * 4);
}

TEST(NeighborsDifferential, StackedItemsMatchReferenceAtTheirOffsets) {
  // Items stacked through DecisionBatch::Add (item-local lists shifted to
  // global rows) equal the reference built at each item's offset.
  Rng rng(29);
  DecisionBatch batch;
  nn::Neighbors expected;
  int rows = 0;
  for (int item = 0; item < 12; ++item) {
    const int m = rng.UniformInt(1, 60);
    const Layout layout = static_cast<Layout>(item % 4);
    const nn::Matrix pos = LayoutPositions(layout, m, &rng);
    nn::Neighbors local;
    AppendNeighbors(pos, 8, 0, &local);
    batch.Add(nn::Matrix(m, kStateFeatures), local);
    ReferenceNeighbors(pos, 8, rows, &expected);
    rows += m;
  }
  EXPECT_EQ(batch.neighbors().offsets, expected.offsets);
  EXPECT_EQ(batch.neighbors().cols, expected.cols);
}

TEST(AppendSubFleetInputs, GathersRowsAndAppendsNeighbors) {
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

  DecisionBatch no_graph;
  EXPECT_EQ(AppendSubFleetInputs(state, idx, /*use_graph=*/false, 2,
                                 &no_graph),
            0);
  EXPECT_EQ(no_graph.total_rows(), 3);
  EXPECT_EQ(no_graph.neighbors().rows(), 0);
  EXPECT_DOUBLE_EQ(no_graph.features()(1, 0), 20.0);  // Row of vehicle 2.

  DecisionBatch graph;
  AppendSubFleetInputs(state, {0}, /*use_graph=*/true, 1, &graph);
  EXPECT_EQ(AppendSubFleetInputs(state, idx, /*use_graph=*/true, 1, &graph),
            1);
  ASSERT_EQ(graph.neighbors().rows(), 4);
  EXPECT_EQ(Row(graph.neighbors(), 0), std::vector<int>{0});
  // Vehicle 2 (global row 2) is nearest to vehicle 3 (global row 3).
  EXPECT_EQ(Row(graph.neighbors(), 2), (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(graph.features()(3, 0), 30.0);
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
