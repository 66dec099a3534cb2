#ifndef DPDP_NN_ATTENTION_H_
#define DPDP_NN_ATTENTION_H_

#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace dpdp::nn {

/// A sparse self-attention graph in CSR form: row i attends to the
/// columns cols[offsets[i], offsets[i + 1]), walked in list order.
/// Attention needs only a non-empty list per row (every softmax row then
/// has a term). The lists AppendNeighbors builds ascend and include i
/// itself, the self loop that keeps them non-empty; stacked batches list
/// global column indices, so an item's rows name only rows of the same
/// item. The compact lists of FleetQNetwork's row classes name classes
/// instead, so they may repeat a column and need not ascend.
struct Neighbors {
  std::vector<int> offsets = {0};  ///< Size rows() + 1.
  std::vector<int> cols;           ///< Size edges().

  int rows() const { return static_cast<int>(offsets.size()) - 1; }
  int edges() const { return static_cast<int>(cols.size()); }
  /// Drops every row; capacity is retained.
  void Clear() {
    offsets.resize(1);
    cols.clear();
  }
};

/// Multi-head scaled dot-product self-attention (Vaswani et al.) over a
/// neighbor graph, the "neighborhood attention" block of ST-DDGN (paper
/// Fig. 5).
///
/// Each vehicle is a row of the input feature matrix X (K x d_model). Row
/// k of the neighbor graph lists vehicle k's NE nearest vehicles plus
/// itself; gathering those rows of the feature matrix is exactly the
/// paper's "relational feature". Attention mixes the listed rows, and a
/// final dense projection produces the higher-level representation. Cost
/// and memory are linear in the edge count, never quadratic in K.
///
/// Forward/Backward alternate strictly: Backward consumes the caches of the
/// immediately preceding Forward.
class MultiHeadSelfAttention {
 public:
  /// d_model must be divisible by num_heads.
  MultiHeadSelfAttention(int d_model, int num_heads, Rng* rng);

  /// X: (K x d_model); `neighbors` has K rows. Returns (K x d_model).
  ///
  /// The Workspace overload returns a reference to a layer-owned buffer
  /// (valid until the next Forward) and performs no heap allocation once
  /// the caches have grown to the working shape.
  ///
  /// `neighbors` is borrowed, not copied: it must stay alive and
  /// unmodified until the matching Backward (or the next Forward)
  /// completes.
  const Matrix& Forward(const Matrix& x, const Neighbors& neighbors,
                        Workspace& ws);
  Matrix Forward(const Matrix& x, const Neighbors& neighbors);

  /// dY: (K x d_model) -> dX (K x d_model); accumulates parameter grads.
  const Matrix& Backward(const Matrix& dy, Workspace& ws);
  Matrix Backward(const Matrix& dy);

  std::vector<Parameter*> Params();

  int d_model() const { return d_model_; }
  int num_heads() const { return num_heads_; }

  /// Softmax weights of the last Forward, (num_heads x edges): entry
  /// (h, e) is head h's weight on edge e of the neighbor graph (for
  /// diagnostics / tests).
  const Matrix& last_attention_weights() const { return attn_; }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;

  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;

  // Forward caches. Owned buffers are reused across calls (resized, never
  // reallocated in steady state); neighbors_/q_/k_/v_ are borrowed — the
  // graph from the caller, the projections from wq_/wk_/wv_'s output
  // buffers (valid until those layers run again, i.e. until the next
  // Forward).
  const Neighbors* neighbors_ = nullptr;
  const Matrix* q_ = nullptr;  // (K x d_model) projected inputs.
  const Matrix* k_ = nullptr;
  const Matrix* v_ = nullptr;
  Matrix attn_;                // (num_heads x edges) softmax weights.
  Matrix concat_;              // (K x d_model) pre-output concat.

  // Backward scratch, same reuse policy.
  Matrix dq_, dk_, dv_;
  Matrix dx_;
  std::vector<double> da_;     // Per-edge attention-grad scratch.
};

}  // namespace dpdp::nn

#endif  // DPDP_NN_ATTENTION_H_
