#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "obs/metrics.h"
#include "rl/config.h"
#include "rl/q_network.h"
#include "rl/state.h"
#include "util/rng.h"

namespace dpdp {
namespace {

nn::Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  nn::Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng->Normal(0.0, scale);
  }
  return m;
}

/// Ring graph: row i attends to itself and its successor (mod n).
nn::Neighbors RingNeighbors(int n) {
  nn::Neighbors g;
  for (int i = 0; i < n; ++i) {
    const int next = (i + 1) % n;
    g.cols.push_back(std::min(i, next));
    if (next != i) g.cols.push_back(std::max(i, next));
    g.offsets.push_back(g.edges());
  }
  return g;
}

AgentConfig SmallConfig(bool graph) {
  AgentConfig c;
  c.hidden_dim = 8;
  c.num_heads = 2;
  c.attention_levels = 2;
  c.use_graph = graph;
  c.seed = 3;
  return c;
}

/// Scores one item through a fresh one-item DecisionBatch and copies the Q
/// column out (the reference stays valid only until the next evaluation).
std::vector<double> EvalOne(FleetQNetwork* net, const nn::Matrix& features,
                            const nn::Neighbors& neighbors = {}) {
  DecisionBatch batch;
  batch.Add(features, neighbors);
  const nn::Matrix& q = net->EvaluateBatch(batch);
  std::vector<double> out(static_cast<size_t>(q.rows()));
  for (int i = 0; i < q.rows(); ++i) out[i] = q(i, 0);
  return out;
}

/// One-hot (or arbitrary) dq vector as the (rows x 1) column BackwardBatch
/// expects.
nn::Matrix DqColumn(const std::vector<double>& dq) {
  nn::Matrix col(static_cast<int>(dq.size()), 1);
  for (size_t i = 0; i < dq.size(); ++i) {
    col(static_cast<int>(i), 0) = dq[i];
  }
  return col;
}

TEST(MlpQNetwork, OneQPerVehicle) {
  Rng rng(1);
  MlpQNetwork net(SmallConfig(false), &rng);
  const auto q = EvalOne(&net, RandomMatrix(5, kStateFeatures, &rng));
  EXPECT_EQ(q.size(), 5u);
}

TEST(MlpQNetwork, RowsAreIndependent) {
  // Shared per-vehicle weights: permuting input rows permutes outputs.
  Rng rng(2);
  MlpQNetwork net(SmallConfig(false), &rng);
  nn::Matrix x = RandomMatrix(3, kStateFeatures, &rng);
  const auto q1 = EvalOne(&net, x);
  nn::Matrix swapped = x;
  for (int c = 0; c < kStateFeatures; ++c) {
    std::swap(swapped(0, c), swapped(2, c));
  }
  const auto q2 = EvalOne(&net, swapped);
  EXPECT_NEAR(q1[0], q2[2], 1e-12);
  EXPECT_NEAR(q1[2], q2[0], 1e-12);
  EXPECT_NEAR(q1[1], q2[1], 1e-12);
}

TEST(GraphQNetwork, OutputDependsOnNeighbors) {
  Rng rng(3);
  GraphQNetwork net(SmallConfig(true), &rng);
  nn::Matrix x = RandomMatrix(4, kStateFeatures, &rng);
  const nn::Neighbors ring = RingNeighbors(4);
  const auto q1 = EvalOne(&net, x, ring);
  // Perturb vehicle 1 (a neighbor of vehicle 0 in the ring).
  for (int c = 0; c < kStateFeatures; ++c) x(1, c) += 1.0;
  const auto q2 = EvalOne(&net, x, ring);
  EXPECT_NE(q1[0], q2[0]);  // Relational: neighbor's state matters.
}

TEST(GraphQNetwork, NonNeighborsDoNotInfluence) {
  Rng rng(4);
  GraphQNetwork net(SmallConfig(true), &rng);
  nn::Matrix x = RandomMatrix(4, kStateFeatures, &rng);
  // Ring graph: i attends {i, i+1}, so with 2 stacked levels vehicle 0's
  // receptive field is {0, 1, 2}. Vehicle 3 is outside it.
  const nn::Neighbors ring = RingNeighbors(4);
  const auto q1 = EvalOne(&net, x, ring);
  for (int c = 0; c < kStateFeatures; ++c) x(3, c) += 5.0;
  const auto q2 = EvalOne(&net, x, ring);
  EXPECT_NEAR(q1[0], q2[0], 1e-12);
  EXPECT_NE(q1[2], q2[2]);  // 2 attends 3 directly.
}

TEST(GraphQNetwork, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  AgentConfig config = SmallConfig(true);
  GraphQNetwork net(config, &rng);
  const nn::Matrix x = RandomMatrix(4, kStateFeatures, &rng, 0.5);
  const nn::Neighbors ring = RingNeighbors(4);

  // Loss = q[1] (single-action gradient as used in DQN training).
  const int target_row = 1;
  auto loss = [&] { return EvalOne(&net, x, ring)[target_row]; };

  // The batch fed to the training forward that precedes BackwardBatch
  // must outlive the backward: the encoder borrows its features and the
  // attention levels its neighbor graph instead of copying them.
  DecisionBatch batch;
  batch.Add(x, ring);
  (void)net.TrainForward(batch);
  net.BackwardBatch(DqColumn({0.0, 1.0, 0.0, 0.0}));

  const double eps = 1e-6;
  int checked = 0;
  for (nn::Parameter* p : net.Params()) {
    for (int r = 0; r < p->value.rows() && checked < 400; ++r) {
      for (int c = 0; c < p->value.cols() && checked < 400; ++c) {
        const double saved = p->value(r, c);
        p->value(r, c) = saved + eps;
        const double lp = loss();
        p->value(r, c) = saved - eps;
        const double lm = loss();
        p->value(r, c) = saved;
        EXPECT_NEAR(p->grad(r, c), (lp - lm) / (2.0 * eps), 2e-5);
        ++checked;
      }
    }
    // Reset accumulated grads between parameters is unnecessary: we
    // compare against the single accumulated backward pass.
  }
  EXPECT_GT(checked, 100);
}

TEST(MlpQNetwork, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  MlpQNetwork net(SmallConfig(false), &rng);
  const nn::Matrix x = RandomMatrix(3, kStateFeatures, &rng, 0.5);
  auto loss = [&] { return EvalOne(&net, x)[2]; };
  // As for the graph net, the batch must outlive the backward: the first
  // layer borrows its features.
  DecisionBatch batch;
  batch.Add(x);
  (void)net.TrainForward(batch);
  net.BackwardBatch(DqColumn({0.0, 0.0, 1.0}));
  const double eps = 1e-6;
  for (nn::Parameter* p : net.Params()) {
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double saved = p->value(r, c);
        p->value(r, c) = saved + eps;
        const double lp = loss();
        p->value(r, c) = saved - eps;
        const double lm = loss();
        p->value(r, c) = saved;
        EXPECT_NEAR(p->grad(r, c), (lp - lm) / (2.0 * eps), 1e-5);
      }
    }
  }
}

TEST(MlpQNetwork, EvaluateBatchBitEqualToOneItemBatches) {
  // The batched pass stacks items into one matrix; with shared per-vehicle
  // weights and one-dot-per-element GEMM kernels, every Q must come out
  // bit-identical to evaluating each item through its own one-item batch
  // (which is what a single local agent's decision path does).
  Rng rng(20);
  MlpQNetwork net(SmallConfig(false), &rng);
  std::vector<nn::Matrix> items;
  DecisionBatch batch;
  for (int m : {3, 1, 5, 4}) {
    items.push_back(RandomMatrix(m, kStateFeatures, &rng));
    batch.Add(items.back());
  }
  const nn::Matrix q = net.EvaluateBatch(batch);  // Copy: net reuses buffers.
  ASSERT_EQ(q.rows(), batch.total_rows());
  ASSERT_EQ(q.cols(), 1);
  for (size_t i = 0; i < items.size(); ++i) {
    const std::vector<double> qi = EvalOne(&net, items[i]);
    const int off = batch.offset(static_cast<int>(i));
    ASSERT_EQ(static_cast<int>(qi.size()), items[i].rows());
    for (size_t r = 0; r < qi.size(); ++r) {
      EXPECT_EQ(q(off + static_cast<int>(r), 0), qi[r])
          << "item " << i << " row " << r;
    }
  }
}

TEST(GraphQNetwork, EvaluateBatchBitEqualToOneItemBatches) {
  // Relational variant: each item's neighbor lists name only its own
  // rows, so every softmax walk is the single-item walk and batching
  // changes no bits.
  Rng rng(21);
  GraphQNetwork net(SmallConfig(true), &rng);
  std::vector<nn::Matrix> items;
  std::vector<nn::Neighbors> graphs;
  DecisionBatch batch;
  for (int m : {4, 1, 6, 3}) {
    items.push_back(RandomMatrix(m, kStateFeatures, &rng));
    graphs.push_back(RingNeighbors(m));
    batch.Add(items.back(), graphs.back());
  }
  const nn::Matrix q = net.EvaluateBatch(batch);  // Copy: net reuses buffers.
  ASSERT_EQ(q.rows(), batch.total_rows());
  for (size_t i = 0; i < items.size(); ++i) {
    const std::vector<double> qi = EvalOne(&net, items[i], graphs[i]);
    const int off = batch.offset(static_cast<int>(i));
    for (size_t r = 0; r < qi.size(); ++r) {
      EXPECT_EQ(q(off + static_cast<int>(r), 0), qi[r])
          << "item " << i << " row " << r;
    }
  }
}

// ------------------------------------------------------- row classes ----
//
// EvaluateBatch runs the network once per row class; TrainForward runs
// every row. The two must agree bit for bit on every input.

uint64_t RowsEvaluated() {
  return obs::MetricsRegistry::Global()
      .GetCounter("nn.rows_evaluated")
      ->Value();
}

/// Compares the two forwards with memcmp and returns the rows EvaluateBatch
/// ran through the network.
int ExpectClassForwardBitwise(FleetQNetwork* net, const DecisionBatch& batch) {
  const nn::Matrix full = net->TrainForward(batch);  // Copy: buffers reused.
  const uint64_t before = RowsEvaluated();
  const nn::Matrix& q = net->EvaluateBatch(batch);
  const int evaluated = static_cast<int>(RowsEvaluated() - before);
  EXPECT_EQ(q.rows(), batch.total_rows());
  EXPECT_EQ(q.cols(), 1);
  EXPECT_EQ(full.rows(), batch.total_rows());
  if (q.rows() == full.rows() && q.cols() == 1) {
    for (int r = 0; r < q.rows(); ++r) {
      EXPECT_EQ(std::memcmp(q.data() + r, full.data() + r, sizeof(double)),
                0)
          << "row " << r << ": " << q(r, 0) << " vs " << full(r, 0);
    }
  }
  return evaluated;
}

/// The Fig. 7 mix over `m` rows: ~40% identical idle rows at one depot,
/// the rest distinct rows spread over `sites - 1` other sites.
void Fig7Mix(Rng* rng, int m, int sites, nn::Matrix* features,
             nn::Matrix* positions) {
  *features = nn::Matrix(m, kStateFeatures);
  *positions = nn::Matrix(m, 2);
  nn::Matrix site(sites, 2);
  for (int s = 0; s < sites; ++s) {
    site(s, 0) = rng->Uniform(0, 8);
    site(s, 1) = rng->Uniform(0, 8);
  }
  for (int r = 0; r < m; ++r) {
    const bool idle = rng->Bernoulli(0.4);
    const int s = idle ? 0 : rng->UniformInt(1, sites - 1);
    for (int c = 0; c < kStateFeatures; ++c) {
      (*features)(r, c) = idle ? 0.25 * c : rng->Uniform();
    }
    (*positions)(r, 0) = site(s, 0);
    (*positions)(r, 1) = site(s, 1);
  }
}

/// Both networks (the MLP with no neighbor lists) over the same rows.
struct BothNets {
  Rng rng{30};
  MlpQNetwork mlp{SmallConfig(false), &rng};
  GraphQNetwork graph{SmallConfig(true), &rng};
};

TEST(RowClasses, AllDistinctRowsRunEveryRow) {
  Rng rng(31);
  BothNets nets;
  nn::Matrix features;
  nn::Matrix positions;
  Fig7Mix(&rng, 40, 40, &features, &positions);
  for (int r = 0; r < features.rows(); ++r) features(r, 0) = rng.Uniform();
  nn::Neighbors neighbors;
  AppendNeighbors(positions, 8, 0, &neighbors);
  DecisionBatch graph_batch;
  graph_batch.Add(features, neighbors);
  DecisionBatch mlp_batch;
  mlp_batch.Add(features);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.graph, graph_batch), 40);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.mlp, mlp_batch), 40);
}

TEST(RowClasses, Fig7MixRunsFewerRows) {
  Rng rng(32);
  BothNets nets;
  nn::Matrix features;
  nn::Matrix positions;
  Fig7Mix(&rng, 150, 17, &features, &positions);
  nn::Neighbors neighbors;
  AppendNeighbors(positions, 8, 0, &neighbors);
  DecisionBatch graph_batch;
  graph_batch.Add(features, neighbors);
  DecisionBatch mlp_batch;
  mlp_batch.Add(features);
  // The idle rows share a depot and a feature row: one class each net.
  int idle = 0;
  for (int r = 0; r < 150; ++r) idle += features(r, 1) == 0.25;
  ASSERT_GT(idle, 40);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.graph, graph_batch),
            150 - idle + 1);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.mlp, mlp_batch), 150 - idle + 1);
}

TEST(RowClasses, RefinementSplitsByNeighborsLevelByLevel) {
  // Two attention levels, so two refinement rounds. Row pairs with
  // identical features:
  //   A0/A1 list distinct rows X/Y         -> split in round 1;
  //   C0/C1 list X/Y, B0/B1 list C0/C1     -> B splits only in round 2;
  //   D0/D1 list B0/B1, E0/E1 list D0/D1   -> three and four hops from
  //                                           X/Y: one class each;
  //   F0/F1 list X in the same order       -> never split;
  //   G0/G1 list the same rows in another order -> split in round 1, as
  //                                           list order is part of the key.
  enum { X, Y, A0, A1, B0, B1, C0, C1, D0, D1, E0, E1, F0, F1, G0, G1,
         kRows };
  BothNets nets;
  nn::Matrix features(kRows, kStateFeatures);
  const int group[kRows] = {0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8};
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kStateFeatures; ++c) {
      features(r, c) = 0.1 * group[r] + 0.01 * c;
    }
  }
  const std::vector<std::vector<int>> lists = {
      {X},      {Y},      {A0, X},  {A1, Y},  {B0, C0}, {B1, C1},
      {C0, X},  {C1, Y},  {D0, B0}, {D1, B1}, {E0, D0}, {E1, D1},
      {F0, X},  {F1, X},  {G0, X},  {X, G1}};
  nn::Neighbors neighbors;
  for (const std::vector<int>& list : lists) {
    for (int j : list) neighbors.cols.push_back(j);
    neighbors.offsets.push_back(neighbors.edges());
  }
  DecisionBatch graph_batch;
  graph_batch.Add(features, neighbors);
  // X, Y, A0, A1, B0, B1, C0, C1, D, E, F, G0, G1.
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.graph, graph_batch), 13);
  // The MLP sees features only.
  DecisionBatch mlp_batch;
  mlp_batch.Add(features);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.mlp, mlp_batch), 9);
}

TEST(RowClasses, StackedItemsShareClassesAcrossItems) {
  Rng rng(34);
  BothNets nets;
  DecisionBatch graph_batch;
  DecisionBatch mlp_batch;
  nn::Matrix first_features;
  nn::Neighbors first_neighbors;
  for (int item = 0; item < 4; ++item) {
    nn::Matrix features;
    nn::Matrix positions;
    Fig7Mix(&rng, 30, 6, &features, &positions);
    nn::Neighbors neighbors;
    AppendNeighbors(positions, 4, 0, &neighbors);
    if (item == 0) {
      first_features = features;
      first_neighbors = neighbors;
    }
    // Item 2 repeats item 0 row for row.
    const bool repeat = item == 2;
    graph_batch.Add(repeat ? first_features : features,
                    repeat ? first_neighbors : neighbors);
    mlp_batch.Add(repeat ? first_features : features);
  }
  const int graph_rows = ExpectClassForwardBitwise(&nets.graph, graph_batch);
  const int mlp_rows = ExpectClassForwardBitwise(&nets.mlp, mlp_batch);
  // The repeated item adds no class; the idle rows of all items are one.
  EXPECT_LE(graph_rows, 90 - 3);
  EXPECT_LE(mlp_rows, 90 - 3);
}

TEST(RowClasses, SelfLoopsOnlyWithNoNeighbors) {
  // k = 0: every list is the row itself, so rows split by features alone.
  Rng rng(35);
  BothNets nets;
  nn::Matrix features;
  nn::Matrix positions;
  Fig7Mix(&rng, 50, 5, &features, &positions);
  nn::Neighbors neighbors;
  AppendNeighbors(positions, 0, 0, &neighbors);
  ASSERT_EQ(neighbors.edges(), 50);
  DecisionBatch graph_batch;
  graph_batch.Add(features, neighbors);
  DecisionBatch mlp_batch;
  mlp_batch.Add(features);
  const int mlp_rows = ExpectClassForwardBitwise(&nets.mlp, mlp_batch);
  EXPECT_LT(mlp_rows, 50);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.graph, graph_batch), mlp_rows);
}

TEST(RowClasses, SiteSmallerThanNeighborCount) {
  // Three identical rows at one site with k = 8: each list reaches past
  // the site, and the rows stay one class only if their outside
  // neighbors do.
  Rng rng(36);
  BothNets nets;
  nn::Matrix features;
  nn::Matrix positions;
  Fig7Mix(&rng, 24, 24, &features, &positions);
  for (int r = 0; r < 24; ++r) {
    for (int c = 0; c < kStateFeatures; ++c) features(r, c) = rng.Uniform();
  }
  for (int r : {3, 11, 19}) {
    for (int c = 0; c < kStateFeatures; ++c) features(r, c) = 0.5;
    positions(r, 0) = 4.0;
    positions(r, 1) = 4.0;
  }
  nn::Neighbors neighbors;
  AppendNeighbors(positions, 8, 0, &neighbors);
  DecisionBatch graph_batch;
  graph_batch.Add(features, neighbors);
  DecisionBatch mlp_batch;
  mlp_batch.Add(features);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.graph, graph_batch), 22);
  EXPECT_EQ(ExpectClassForwardBitwise(&nets.mlp, mlp_batch), 22);
}

TEST(RowClassesDeathTest, BackwardAfterEvaluateBatchAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(37);
  const nn::Matrix x = RandomMatrix(4, kStateFeatures, &rng);
  DecisionBatch graph_batch;
  graph_batch.Add(x, RingNeighbors(4));
  DecisionBatch mlp_batch;
  mlp_batch.Add(x);
  const nn::Matrix dq = DqColumn({0.0, 1.0, 0.0, 0.0});
  EXPECT_DEATH(
      {
        GraphQNetwork net(SmallConfig(true), &rng);
        (void)net.TrainForward(graph_batch);
        (void)net.EvaluateBatch(graph_batch);
        net.BackwardBatch(dq);
      },
      "BackwardBatch must follow TrainForward");
  EXPECT_DEATH(
      {
        MlpQNetwork net(SmallConfig(false), &rng);
        (void)net.EvaluateBatch(mlp_batch);
        net.BackwardBatch(dq);
      },
      "BackwardBatch must follow TrainForward");
  EXPECT_DEATH(
      {
        MlpQNetwork net(SmallConfig(false), &rng);
        (void)net.TrainForward(mlp_batch);
        net.BackwardBatch(dq);
        net.BackwardBatch(dq);
      },
      "BackwardBatch must follow TrainForward");
}

TEST(DecisionBatch, ClearRetainsCapacityAndResetsShape) {
  Rng rng(22);
  DecisionBatch batch;
  batch.Add(RandomMatrix(3, kStateFeatures, &rng), RingNeighbors(3));
  batch.Add(RandomMatrix(2, kStateFeatures, &rng), RingNeighbors(2));
  EXPECT_EQ(batch.num_items(), 2);
  EXPECT_EQ(batch.total_rows(), 5);
  EXPECT_EQ(batch.offset(1), 3);
  EXPECT_EQ(batch.rows(1), 2);
  // Item-local columns are shifted to global rows; no list crosses items.
  const nn::Neighbors& g = batch.neighbors();
  EXPECT_EQ(g.offsets, (std::vector<int>{0, 2, 4, 6, 8, 10}));
  EXPECT_EQ(g.cols, (std::vector<int>{0, 1, 1, 2, 0, 2, 3, 4, 3, 4}));
  batch.Clear();
  EXPECT_EQ(batch.num_items(), 0);
  EXPECT_EQ(batch.total_rows(), 0);
  EXPECT_EQ(batch.neighbors().rows(), 0);
  EXPECT_EQ(batch.neighbors().edges(), 0);
}

TEST(MakeQNetwork, SelectsVariantByConfig) {
  Rng rng(7);
  auto mlp = MakeQNetwork(SmallConfig(false), &rng);
  auto graph = MakeQNetwork(SmallConfig(true), &rng);
  EXPECT_NE(dynamic_cast<MlpQNetwork*>(mlp.get()), nullptr);
  EXPECT_NE(dynamic_cast<GraphQNetwork*>(graph.get()), nullptr);
}

TEST(GraphQNetwork, ParameterCountMatchesArchitecture) {
  Rng rng(8);
  AgentConfig c = SmallConfig(true);
  GraphQNetwork net(c, &rng);
  // Encoder: 2 Linear layers -> 4 params. Attention x2 levels: 4 Linear
  // each -> 16. Head: 2 Linear -> 4. Total 24.
  EXPECT_EQ(net.Params().size(), 24u);
}

TEST(GraphQNetwork, SingleVehicleFleetWorks) {
  Rng rng(9);
  GraphQNetwork net(SmallConfig(true), &rng);
  const auto q = EvalOne(&net, RandomMatrix(1, kStateFeatures, &rng),
                         RingNeighbors(1));
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace dpdp
