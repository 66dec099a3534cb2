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

/// Per-fleet Q-value network, scoring candidate rows of a DecisionBatch
/// (constraint embedding has already removed infeasible vehicles) and
/// returning a column of Q-values. The reference stays valid until the
/// network's next forward or backward.
///
/// Every forward gives each row the bits a full forward over the whole
/// batch gives it:
/// - EvaluateBatch is the inference forward. It runs the network once per
///   row class and copies each class's Q to its rows. Two rows share a
///   class when they have bit-identical features and, for the relational
///   net, their listed neighbors share classes in list order, level by
///   level (DESIGN.md "Row classes").
/// - A forward given `rows` (strictly ascending rows of the batch) runs
///   only their receptive field: the listed rows plus every row they reach
///   over attention_levels hops of neighbor lists (DESIGN.md "Receptive
///   fields"). It returns one Q per listed row, in list order. When the
///   field holds every row, the batch runs as is, with no copy.
/// - TrainForward is the training forward over the field of `rows`; it
///   keeps the caches BackwardBatch consumes. BackwardBatch must follow a
///   TrainForward (gradients accumulate across calls until the optimizer
///   steps); after an EvaluateBatch, or a second time, it aborts. The
///   DecisionBatch passed to TrainForward must stay alive through the
///   backward pass: when the field holds every row, the first layer holds
///   a reference to the batch's features, and the graph network's
///   attention levels one to its neighbor graph, rather than copying them.
///
/// Neighbor lists must include their own row, as AppendNeighbors' do: a
/// row on the field's outer ring keeps only its listed rows inside the
/// field, and its self loop keeps that list non-empty.
class FleetQNetwork {
 public:
  virtual ~FleetQNetwork() = default;

  /// (total_rows x 1): the Q of every row of `batch`.
  const nn::Matrix& EvaluateBatch(const DecisionBatch& batch);
  /// (rows.size() x 1): the Q of the listed rows, row classes run on their
  /// receptive field.
  const nn::Matrix& EvaluateBatch(const DecisionBatch& batch,
                                  const std::vector<int>& rows);
  /// (rows.size() x 1): the Q of the listed rows, the whole field run.
  const nn::Matrix& TrainForward(const DecisionBatch& batch,
                                 const std::vector<int>& rows);

  /// dq: (rows.size() x 1), the gradient of the loss w.r.t. each Q the
  /// preceding TrainForward returned.
  void BackwardBatch(const nn::Matrix& dq);

  virtual std::vector<nn::Parameter*> Params() = 0;

 protected:
  /// `levels`: the attention levels, each one neighbor hop of a row's
  /// receptive field and one refinement round of its class (0 without
  /// attention).
  explicit FleetQNetwork(int levels) : attention_levels_(levels) {}

  /// The full forward over every row of `batch`, and its backward.
  virtual const nn::Matrix& Forward(const DecisionBatch& batch) = 0;
  virtual void Backward(const nn::Matrix& dq) = 0;

 private:
  /// Scratch of the row-class and receptive-field passes, reused across
  /// calls.
  struct RowClasses {
    std::vector<int> cls;        ///< Class of each row.
    std::vector<int> prev;       ///< The previous round's classes.
    std::vector<int> rep;        ///< First row of each class.
    std::vector<uint64_t> hash;  ///< Key hash of each class.
    std::vector<int> table;      ///< Open addressing: class or -1.
    /// Per row: its field level while the field grows, then its field
    /// position; -1 outside the field.
    std::vector<int> field_pos;
    std::vector<int> frontier;   ///< Rows that entered at this level.
    std::vector<int> reached;    ///< Rows that enter at the next level.
    std::vector<int> field;      ///< Field rows in ascending order.
  };

  /// Numbers the row classes of `batch` into classes_ and returns their
  /// count; below total_rows() it also fills compact_.
  int ClassifyRows(const DecisionBatch& batch);
  /// Gathers the receptive field of `rows` and returns the batch to run:
  /// `batch` itself when the field holds every row, field_ otherwise.
  /// Fills listed_ with each listed row's position in it.
  const DecisionBatch& ReceptiveField(const DecisionBatch& batch,
                                      const std::vector<int>& rows);

  const int attention_levels_;
  bool backward_ready_ = false;
  int forward_rows_ = 0;  ///< Rows the last TrainForward ran.
  RowClasses classes_;
  DecisionBatch compact_;  ///< One representative row per class.
  DecisionBatch field_;    ///< The receptive field of the listed rows.
  std::vector<int> listed_;  ///< Listed rows' positions in the run batch.
  nn::Matrix q_;           ///< Q-values copied out per row.
  nn::Matrix dfield_;      ///< dq scattered over the field's rows.
};

/// Factorized per-vehicle MLP without relational structure (the DQN /
/// DDQN / ST-DDQN ablations). Shared weights across vehicles = rows, so a
/// stacked batch is just a taller input matrix.
class MlpQNetwork : public FleetQNetwork {
 public:
  MlpQNetwork(const AgentConfig& config, Rng* rng);

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
