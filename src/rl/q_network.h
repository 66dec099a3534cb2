#ifndef DPDP_RL_Q_NETWORK_H_
#define DPDP_RL_Q_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "rl/config.h"
#include "util/rng.h"

namespace dpdp {

/// A batch of candidate decision items for one Q-network evaluation. Each
/// item is a feasible sub-fleet: `rows(i)` feature rows (one per candidate
/// vehicle) plus, for relational nets, one neighbor list per row. Items
/// are stacked into a single feature matrix so the network scores every
/// candidate of every item in ONE forward pass; an item's neighbor lists
/// name only rows of the same item, which makes the relational nets'
/// attention numerics bit-identical to evaluating each item alone.
///
/// All storage is reused across Clear() cycles, so a caller that keeps one
/// DecisionBatch alive builds batches with no steady-state heap traffic.
class DecisionBatch {
 public:
  /// Drops all items; capacity is retained.
  void Clear();

  /// Appends an item by copying `features` (rows x feature_dim) and, for
  /// relational nets, `neighbors` (`rows` lists of item-local columns,
  /// shifted here to global ones). Returns the item index.
  int Add(const nn::Matrix& features, const nn::Neighbors& neighbors = {});

  /// Opens an item of `rows` x `cols` UNINITIALIZED feature rows (write
  /// them via mutable_features(), global rows [offset(i), offset(i) +
  /// rows(i))). Relational callers then append the item's neighbor lists
  /// to mutable_neighbors() (see AppendNeighbors). Returns the item index.
  int AddItem(int rows, int cols);

  /// Stacked feature storage; only rows of already-added items may be
  /// written.
  nn::Matrix& mutable_features() { return features_; }
  nn::Neighbors& mutable_neighbors() { return neighbors_; }

  int num_items() const { return num_items_; }
  int total_rows() const { return offsets_[num_items_]; }
  int offset(int item) const { return offsets_[item]; }
  int rows(int item) const {
    return offsets_[item + 1] - offsets_[item];
  }

  /// Stacked features, (total_rows x feature_dim).
  const nn::Matrix& features() const { return features_; }

  /// Neighbor graph over the stacked rows (global column indices); empty
  /// for non-relational nets, one list per row otherwise.
  const nn::Neighbors& neighbors() const { return neighbors_; }

 private:
  nn::Matrix features_;            ///< Stacked item features.
  std::vector<int> offsets_ = {0};  ///< Row offsets; size num_items_ + 1.
  nn::Neighbors neighbors_;
  int num_items_ = 0;
};

/// Per-fleet Q-value network, scoring every candidate row of every item of
/// a DecisionBatch (constraint embedding has already removed infeasible
/// vehicles) and returning a (total_rows x 1) column of Q-values. The
/// reference stays valid until the network's next forward or backward.
///
/// Two forwards give the same bits:
/// - EvaluateBatch is the inference forward. It runs the network once per
///   row class and copies each class's Q to its rows. Two rows share a
///   class when they have bit-identical features and, for the relational
///   net, their listed neighbors share classes in list order, level by
///   level (DESIGN.md "Compute kernel model"), so every row's Q is the
///   bits a full forward gives it.
/// - TrainForward runs every row through the network and keeps the caches
///   BackwardBatch consumes. BackwardBatch must follow a TrainForward
///   (gradients accumulate across calls until the optimizer steps); after
///   an EvaluateBatch, or a second time, it aborts. The DecisionBatch
///   passed to TrainForward must stay alive through the backward pass:
///   the first layer holds a reference to the batch's features, and the
///   graph network's attention levels one to its neighbor graph, rather
///   than copying them.
class FleetQNetwork {
 public:
  virtual ~FleetQNetwork() = default;

  const nn::Matrix& EvaluateBatch(const DecisionBatch& batch);
  const nn::Matrix& TrainForward(const DecisionBatch& batch);

  /// dq: (total_rows x 1) gradient of the loss w.r.t. each output Q
  /// (usually one-hot at the chosen vehicle).
  void BackwardBatch(const nn::Matrix& dq);

  /// Grows every forward buffer to `batch`'s height in one step. A caller
  /// that runs a shorter EvaluateBatch and then a TrainForward on one
  /// network calls it first with the TrainForward batch, so the buffers do
  /// not grow in steps (DESIGN.md "Row classes").
  virtual void Reserve(const DecisionBatch& batch) = 0;

  virtual std::vector<nn::Parameter*> Params() = 0;

 protected:
  /// `refine_rounds`: how many times a row's class is refined by its
  /// neighbors' classes, one round per attention level (0 without one).
  explicit FleetQNetwork(int refine_rounds) : refine_rounds_(refine_rounds) {}

  /// The full forward over every row of `batch`, and its backward.
  virtual const nn::Matrix& Forward(const DecisionBatch& batch) = 0;
  virtual void Backward(const nn::Matrix& dq) = 0;

 private:
  /// Scratch of the row-class pass, reused across calls.
  struct RowClasses {
    std::vector<int> cls;        ///< Class of each row.
    std::vector<int> prev;       ///< The previous round's classes.
    std::vector<int> rep;        ///< First row of each class.
    std::vector<uint64_t> hash;  ///< Key hash of each class.
    std::vector<int> table;      ///< Open addressing: class or -1.
  };

  /// Numbers the row classes of `batch` into classes_ and returns their
  /// count; below total_rows() it also fills compact_.
  int ClassifyRows(const DecisionBatch& batch);

  const int refine_rounds_;
  bool backward_ready_ = false;
  RowClasses classes_;
  DecisionBatch compact_;  ///< One representative row per class.
  nn::Matrix q_;           ///< Class Q-values copied out to every row.
};

/// Factorized per-vehicle MLP without relational structure (the DQN /
/// DDQN / ST-DDQN ablations). Shared weights across vehicles = rows, so a
/// stacked batch is just a taller input matrix.
class MlpQNetwork : public FleetQNetwork {
 public:
  MlpQNetwork(const AgentConfig& config, Rng* rng);

  void Reserve(const DecisionBatch& batch) override;
  std::vector<nn::Parameter*> Params() override;

 protected:
  const nn::Matrix& Forward(const DecisionBatch& batch) override;
  void Backward(const nn::Matrix& dq) override;

 private:
  nn::Mlp mlp_;
  nn::Workspace ws_;
};

/// The DGN / DDGN / ST-DDGN network (paper Fig. 4): shared encoder MLP ->
/// stacked neighborhood-attention blocks (with ReLU) -> concatenation of
/// every level's representation -> Q head MLP. Every row attends over its
/// DecisionBatch neighbor list, so batched items never see each other.
class GraphQNetwork : public FleetQNetwork {
 public:
  GraphQNetwork(const AgentConfig& config, Rng* rng);

  void Reserve(const DecisionBatch& batch) override;
  std::vector<nn::Parameter*> Params() override;

 protected:
  const nn::Matrix& Forward(const DecisionBatch& batch) override;
  void Backward(const nn::Matrix& dq) override;

 private:
  int levels_;
  nn::Mlp encoder_;
  std::vector<nn::MultiHeadSelfAttention> attention_;
  std::vector<nn::ReLU> relus_;
  nn::Mlp head_;
  nn::Workspace ws_;

  // Reused pass buffers. The level outputs themselves live in the layers'
  // own buffers; only the concatenation and two gradients need homes.
  std::vector<const nn::Matrix*> level_;  ///< Borrowed level outputs.
  nn::Matrix concat_;
  nn::Matrix dtop_;  ///< Top level's slice of the concat gradient.
  nn::Matrix dh_;    ///< Gradient w.r.t. the current level's input.
};

/// Builds the network variant selected by `config.use_graph`.
std::unique_ptr<FleetQNetwork> MakeQNetwork(const AgentConfig& config,
                                            Rng* rng);

}  // namespace dpdp

#endif  // DPDP_RL_Q_NETWORK_H_
