#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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

/// Every row of `batch`, the row list of an all-rows forward.
std::vector<int> AllRows(const DecisionBatch& batch) {
  std::vector<int> rows(static_cast<size_t>(batch.total_rows()));
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<int>(r);
  return rows;
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
  // Row 1's receptive field over two ring levels is rows {1, 2, 3}.
  DecisionBatch batch;
  batch.Add(x, ring);
  (void)net.TrainForward(batch, {target_row});
  net.BackwardBatch(DqColumn({1.0}));

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
  (void)net.TrainForward(batch, {2});
  net.BackwardBatch(DqColumn({1.0}));
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
  // Copy: buffers reused.
  const nn::Matrix full = net->TrainForward(batch, AllRows(batch));
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

AgentConfig LevelsConfig(int levels) {
  AgentConfig c = SmallConfig(true);
  c.attention_levels = levels;
  return c;
}

/// Both networks (the MLP with no neighbor lists) over the same rows, plus
/// graph networks with one and three attention levels for the receptive
/// fields.
struct BothNets {
  Rng rng{30};
  MlpQNetwork mlp{SmallConfig(false), &rng};
  GraphQNetwork graph{SmallConfig(true), &rng};
  GraphQNetwork graph1{LevelsConfig(1), &rng};
  GraphQNetwork graph3{LevelsConfig(3), &rng};
};

// ---------------------------------------------------- receptive fields ----
//
// A forward given rows runs only their receptive field. Every listed Q and
// every parameter gradient must keep the bits of the all-rows pass.

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Copies out every parameter gradient of `net` and zeroes it.
std::vector<nn::Matrix> TakeGrads(FleetQNetwork* net) {
  std::vector<nn::Matrix> grads;
  for (nn::Parameter* p : net->Params()) {
    grads.push_back(p->grad);
    p->ZeroGrad();
  }
  return grads;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Compares the field passes over `rows` with the all-rows passes under
/// memcmp: TrainForward's Q per listed row; every parameter gradient after
/// BackwardBatch, against the all-rows backward fed the same gradients at
/// the listed rows and 0 elsewhere; EvaluateBatch(batch, rows) against
/// EvaluateBatch(batch). Returns the rows the training field ran.
int ExpectFieldBitwise(FleetQNetwork* net, const DecisionBatch& batch,
                       const std::vector<int>& rows, Rng* rng) {
  const int m = batch.total_rows();
  const int n = static_cast<int>(rows.size());
  nn::Matrix dq(n, 1);
  nn::Matrix dq_all(m, 1);
  dq_all.Fill(0.0);
  for (int i = 0; i < n; ++i) {
    // Every third listed row gets an exact zero gradient.
    dq(i, 0) = i % 3 == 2 ? 0.0 : rng->Normal(0.0, 1.0);
    dq_all(rows[i], 0) = dq(i, 0);
  }
  TakeGrads(net);
  const nn::Matrix full = net->TrainForward(batch, AllRows(batch));  // Copy.
  net->BackwardBatch(dq_all);
  const std::vector<nn::Matrix> full_grads = TakeGrads(net);

  const uint64_t before = CounterValue("nn.train_rows_evaluated");
  const nn::Matrix q = net->TrainForward(batch, rows);  // Copy.
  const int evaluated =
      static_cast<int>(CounterValue("nn.train_rows_evaluated") - before);
  net->BackwardBatch(dq);
  const std::vector<nn::Matrix> grads = TakeGrads(net);

  EXPECT_EQ(q.rows(), n);
  for (int i = 0; i < n && i < q.rows(); ++i) {
    EXPECT_TRUE(SameBits(q(i, 0), full(rows[i], 0)))
        << "row " << rows[i] << ": " << q(i, 0) << " vs " << full(rows[i], 0);
  }
  EXPECT_EQ(grads.size(), full_grads.size());
  bool any_nonzero = false;
  for (size_t p = 0; p < grads.size() && p < full_grads.size(); ++p) {
    EXPECT_EQ(std::memcmp(grads[p].data(), full_grads[p].data(),
                          sizeof(double) * grads[p].size()),
              0)
        << "parameter " << p;
    for (int e = 0; e < full_grads[p].size(); ++e) {
      any_nonzero = any_nonzero || full_grads[p].data()[e] != 0.0;
    }
  }
  EXPECT_TRUE(any_nonzero);

  const nn::Matrix all = net->EvaluateBatch(batch);  // Copy.
  const nn::Matrix& listed = net->EvaluateBatch(batch, rows);
  EXPECT_EQ(listed.rows(), n);
  for (int i = 0; i < n && i < listed.rows(); ++i) {
    EXPECT_TRUE(SameBits(listed(i, 0), all(rows[i], 0)))
        << "row " << rows[i] << ": " << listed(i, 0) << " vs "
        << all(rows[i], 0);
  }
  EXPECT_LE(evaluated, m);
  return evaluated;
}

/// Runs ExpectFieldBitwise for every net on four row sets: one random row
/// per item (the DQN shape), a random subset, every row, and one random
/// row. The MLP scores `mlp_batch`, the same items without neighbor lists.
void ExpectFieldsBitwise(BothNets* nets, const DecisionBatch& graph_batch,
                         const DecisionBatch& mlp_batch, Rng* rng) {
  std::vector<std::vector<int>> sets(4);
  for (int i = 0; i < graph_batch.num_items(); ++i) {
    sets[0].push_back(graph_batch.offset(i) +
                      rng->UniformInt(graph_batch.rows(i)));
  }
  for (int r = 0; r < graph_batch.total_rows(); ++r) {
    if (rng->Bernoulli(0.3)) sets[1].push_back(r);
  }
  if (sets[1].empty()) sets[1].push_back(0);
  sets[2] = AllRows(graph_batch);
  sets[3] = {rng->UniformInt(graph_batch.total_rows())};
  for (size_t k = 0; k < sets.size(); ++k) {
    SCOPED_TRACE("row set " + std::to_string(k));
    EXPECT_EQ(ExpectFieldBitwise(&nets->mlp, mlp_batch, sets[k], rng),
              static_cast<int>(sets[k].size()));
    for (GraphQNetwork* net : {&nets->graph1, &nets->graph, &nets->graph3}) {
      ExpectFieldBitwise(net, graph_batch, sets[k], rng);
    }
  }
}

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
  ExpectFieldsBitwise(&nets, graph_batch, mlp_batch, &rng);
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
  ExpectFieldsBitwise(&nets, graph_batch, mlp_batch, &rng);
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
  Rng rng(33);
  ExpectFieldsBitwise(&nets, graph_batch, mlp_batch, &rng);
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

  // A fifth item of 5 rows with k = 8: every row lists the whole item, so
  // one row's field is its item and no more, at any attention level.
  nn::Matrix features;
  nn::Matrix positions;
  Fig7Mix(&rng, 5, 5, &features, &positions);
  nn::Neighbors neighbors;
  AppendNeighbors(positions, 8, 0, &neighbors);
  const int last = graph_batch.Add(features, neighbors);
  mlp_batch.Add(features);
  ExpectFieldsBitwise(&nets, graph_batch, mlp_batch, &rng);
  const std::vector<int> row = {graph_batch.offset(last) + 2};
  for (GraphQNetwork* net : {&nets.graph1, &nets.graph, &nets.graph3}) {
    EXPECT_EQ(ExpectFieldBitwise(net, graph_batch, row, &rng), 5);
  }
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
  ExpectFieldsBitwise(&nets, graph_batch, mlp_batch, &rng);
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
  ExpectFieldsBitwise(&nets, graph_batch, mlp_batch, &rng);
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
        (void)net.TrainForward(graph_batch, AllRows(graph_batch));
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
        (void)net.TrainForward(mlp_batch, AllRows(mlp_batch));
        net.BackwardBatch(dq);
        net.BackwardBatch(dq);
      },
      "BackwardBatch must follow TrainForward");
}

TEST(ReceptiveField, CountersReadTheFieldOfATwoItemBatch) {
  // Two ring items of 4 and 6 rows, row i listing {i, i + 1 mod n}. Row 0
  // of the first item and row 3 of the second are listed. Over L levels
  // their fields are the next L + 1 rows of each ring, clipped to the
  // item: 4 rows at L = 1, 6 at L = 2 and 8 at L = 3 of the 10.
  Rng rng(38);
  BothNets nets;
  DecisionBatch graph_batch;
  DecisionBatch mlp_batch;
  for (int m : {4, 6}) {
    const nn::Matrix x = RandomMatrix(m, kStateFeatures, &rng);
    graph_batch.Add(x, RingNeighbors(m));
    mlp_batch.Add(x);
  }
  const std::vector<int> rows = {0, 4 + 3};
  struct Case {
    FleetQNetwork* net;
    const DecisionBatch* batch;
    uint64_t field;
  };
  for (const Case& c : {Case{&nets.mlp, &mlp_batch, 2},
                        Case{&nets.graph1, &graph_batch, 4},
                        Case{&nets.graph, &graph_batch, 6},
                        Case{&nets.graph3, &graph_batch, 8}}) {
    const uint64_t train_requested = CounterValue("nn.train_rows_requested");
    const uint64_t train_evaluated = CounterValue("nn.train_rows_evaluated");
    const uint64_t requested = CounterValue("nn.rows_requested");
    const uint64_t evaluated = CounterValue("nn.rows_evaluated");
    (void)c.net->TrainForward(*c.batch, rows);
    EXPECT_EQ(CounterValue("nn.train_rows_requested") - train_requested,
              10u);
    EXPECT_EQ(CounterValue("nn.train_rows_evaluated") - train_evaluated,
              c.field);
    EXPECT_EQ(CounterValue("nn.rows_requested"), requested);
    // The inference forward runs the field's row classes: with random
    // features, one class per field row.
    (void)c.net->EvaluateBatch(*c.batch, rows);
    EXPECT_EQ(CounterValue("nn.rows_requested") - requested, 10u);
    EXPECT_EQ(CounterValue("nn.rows_evaluated") - evaluated, c.field);
    EXPECT_EQ(CounterValue("nn.train_rows_requested") - train_requested,
              10u);
  }
}

TEST(ReceptiveFieldDeathTest, BadRowsAndGradientsAbort) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(39);
  DecisionBatch batch;
  batch.Add(RandomMatrix(4, kStateFeatures, &rng), RingNeighbors(4));
  GraphQNetwork net(SmallConfig(true), &rng);
  const char* kBadRows = "rows must ascend within the batch";
  EXPECT_DEATH((void)net.TrainForward(batch, {2, 1}), kBadRows);
  EXPECT_DEATH((void)net.TrainForward(batch, {1, 1}), kBadRows);
  EXPECT_DEATH((void)net.TrainForward(batch, {0, 4}), kBadRows);
  EXPECT_DEATH((void)net.EvaluateBatch(batch, {-1}), kBadRows);
  EXPECT_DEATH((void)net.EvaluateBatch(batch, {3, 0}), kBadRows);
  EXPECT_DEATH(
      {
        (void)net.TrainForward(batch, {1, 2});
        net.BackwardBatch(DqColumn({1.0}));
      },
      "dq must hold one gradient per listed row");
  EXPECT_DEATH(
      {
        (void)net.TrainForward(batch, {1});
        (void)net.EvaluateBatch(batch, {1});
        net.BackwardBatch(DqColumn({1.0}));
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
