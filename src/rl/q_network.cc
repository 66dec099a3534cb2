#include "rl/q_network.h"

#include "obs/trace.h"
#include "rl/state.h"

namespace dpdp {

void DecisionBatch::Clear() {
  num_items_ = 0;
  offsets_.resize(1);
  features_.Resize(0, features_.cols());
  neighbors_.Clear();
}

int DecisionBatch::AddItem(int rows, int cols) {
  DPDP_CHECK(rows >= 0 && cols > 0);
  DPDP_CHECK(features_.rows() == 0 || features_.cols() == cols);
  const int item = num_items_;
  const int begin = offsets_[item];
  features_.Resize(begin + rows, cols);
  offsets_.push_back(begin + rows);
  ++num_items_;
  return item;
}

int DecisionBatch::Add(const nn::Matrix& features,
                       const nn::Neighbors& neighbors) {
  DPDP_CHECK(neighbors.rows() == 0 || neighbors.rows() == features.rows());
  const int item = AddItem(features.rows(), features.cols());
  const int begin = offset(item);
  for (int r = 0; r < features.rows(); ++r) {
    for (int c = 0; c < features.cols(); ++c) {
      features_(begin + r, c) = features(r, c);
    }
  }
  for (int r = 0; r < neighbors.rows(); ++r) {
    for (int e = neighbors.offsets[r]; e < neighbors.offsets[r + 1]; ++e) {
      const int j = neighbors.cols[e];
      DPDP_CHECK(j >= 0 && j < features.rows());
      neighbors_.cols.push_back(begin + j);
    }
    neighbors_.offsets.push_back(static_cast<int>(neighbors_.cols.size()));
  }
  return item;
}

MlpQNetwork::MlpQNetwork(const AgentConfig& config, Rng* rng)
    : mlp_({kStateFeatures, config.hidden_dim, config.hidden_dim, 1}, rng) {}

const nn::Matrix& MlpQNetwork::EvaluateBatch(const DecisionBatch& batch) {
  DPDP_TRACE_SPAN("nn.forward");
  return mlp_.Forward(batch.features(), ws_);
}

void MlpQNetwork::BackwardBatch(const nn::Matrix& dq) {
  DPDP_CHECK(dq.cols() == 1);
  mlp_.Backward(dq, ws_);
}

std::vector<nn::Parameter*> MlpQNetwork::Params() { return mlp_.Params(); }

GraphQNetwork::GraphQNetwork(const AgentConfig& config, Rng* rng)
    : levels_(config.attention_levels),
      encoder_({kStateFeatures, config.hidden_dim, config.hidden_dim}, rng),
      head_({config.hidden_dim * (config.attention_levels + 1),
             config.hidden_dim, 1},
            rng) {
  DPDP_CHECK(levels_ >= 1);
  for (int l = 0; l < levels_; ++l) {
    attention_.emplace_back(config.hidden_dim, config.num_heads, rng);
  }
  relus_.resize(levels_);
  level_.resize(levels_ + 1);
}

const nn::Matrix& GraphQNetwork::EvaluateBatch(const DecisionBatch& batch) {
  DPDP_TRACE_SPAN("nn.forward");
  const int m = batch.total_rows();
  const int d = encoder_.out_dim();
  const nn::Neighbors& neighbors = batch.neighbors();
  DPDP_CHECK(neighbors.rows() == m);

  // The level outputs live in the layers' own buffers; each level has its
  // own ReLU, so the references stay valid through concatenation.
  level_[0] = &encoder_.Forward(batch.features(), ws_);
  for (int l = 0; l < levels_; ++l) {
    level_[l + 1] = &relus_[l].Forward(
        attention_[l].Forward(*level_[l], neighbors, ws_),
        ws_);
  }
  // Concatenate every level's representation (paper: initial + high-level
  // representations are concatenated before the Q head). Every entry is
  // written, so the uninitialized Resize is safe.
  concat_.Resize(m, d * (levels_ + 1));
  for (int l = 0; l <= levels_; ++l) {
    const nn::Matrix& src = *level_[l];
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < d; ++c) concat_(r, l * d + c) = src(r, c);
    }
  }
  forward_valid_ = true;
  return head_.Forward(concat_, ws_);
}

void GraphQNetwork::BackwardBatch(const nn::Matrix& dq) {
  DPDP_CHECK(forward_valid_);
  DPDP_CHECK(dq.cols() == 1);
  const int m = dq.rows();
  const int d = encoder_.out_dim();
  const nn::Matrix& dconcat = head_.Backward(dq, ws_);
  DPDP_CHECK(dconcat.rows() == m && dconcat.cols() == d * (levels_ + 1));

  // The top level's concat slice feeds its ReLU, which takes a Matrix.
  dtop_.Resize(m, d);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < d; ++c) dtop_(r, c) = dconcat(r, levels_ * d + c);
  }
  // Walk the attention stack backwards, folding each lower level's direct
  // contribution from the concatenation into the attention dX as it is
  // read out.
  const nn::Matrix* dh = &dtop_;
  for (int l = levels_ - 1; l >= 0; --l) {
    const nn::Matrix& da = relus_[l].Backward(*dh, ws_);
    const nn::Matrix& dx = attention_[l].Backward(da, ws_);
    dh_.Resize(m, d);
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < d; ++c) {
        dh_(r, c) = dx(r, c) + dconcat(r, l * d + c);
      }
    }
    dh = &dh_;
  }
  encoder_.Backward(*dh, ws_);
  forward_valid_ = false;
}

std::vector<nn::Parameter*> GraphQNetwork::Params() {
  std::vector<nn::Parameter*> out = encoder_.Params();
  for (auto& a : attention_) {
    for (nn::Parameter* p : a.Params()) out.push_back(p);
  }
  for (nn::Parameter* p : head_.Params()) out.push_back(p);
  return out;
}

std::unique_ptr<FleetQNetwork> MakeQNetwork(const AgentConfig& config,
                                            Rng* rng) {
  if (config.use_graph) {
    return std::make_unique<GraphQNetwork>(config, rng);
  }
  return std::make_unique<MlpQNetwork>(config, rng);
}

}  // namespace dpdp
