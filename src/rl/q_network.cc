#include "rl/q_network.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/state.h"

namespace dpdp {

namespace {

/// Rows of the batches handed to the inference forward against rows it ran
/// through the network (one per row class), and the same for the training
/// forward (the receptive field's rows); each ratio is the share of the
/// batch run.
struct QNetworkMetrics {
  obs::Counter* rows_requested =
      obs::MetricsRegistry::Global().GetCounter("nn.rows_requested");
  obs::Counter* rows_evaluated =
      obs::MetricsRegistry::Global().GetCounter("nn.rows_evaluated");
  obs::Counter* train_rows_requested =
      obs::MetricsRegistry::Global().GetCounter("nn.train_rows_requested");
  obs::Counter* train_rows_evaluated =
      obs::MetricsRegistry::Global().GetCounter("nn.train_rows_evaluated");
};

QNetworkMetrics& Metrics() {
  static QNetworkMetrics* metrics = new QNetworkMetrics;
  return *metrics;
}

/// splitmix64's finalizer. A weak combiner such as boost's hash_combine
/// leaves a fleet's near-identical keys clustered in a linear-probing
/// table.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One partition round: numbers the classes of rows [0, m) in order of
/// first appearance into `cls` and returns their count. Rows share a class
/// when `equal(representative, row)`; `hash(row)` must agree with it.
template <typename Hash, typename Equal>
int Partition(int m, const Hash& hash, const Equal& equal, int* cls,
              std::vector<int>* rep, std::vector<uint64_t>* key_hash,
              std::vector<int>* table) {
  std::fill(table->begin(), table->end(), -1);
  const size_t mask = table->size() - 1;
  int n = 0;
  for (int r = 0; r < m; ++r) {
    const uint64_t h = hash(r);
    size_t slot = h & mask;
    int c = (*table)[slot];
    while (c >= 0 && !((*key_hash)[c] == h && equal((*rep)[c], r))) {
      slot = (slot + 1) & mask;
      c = (*table)[slot];
    }
    if (c < 0) {
      c = n++;
      (*table)[slot] = c;
      (*rep)[c] = r;
      (*key_hash)[c] = h;
    }
    cls[r] = c;
  }
  return n;
}

/// Copies rows take[0, n) of `src` into `dst` as its one item. With
/// `lists`, each row's neighbor list follows, every entry mapped through
/// `map` and dropped where the map reads -1.
void GatherRows(const DecisionBatch& src, const int* take, int n,
                const int* map, bool lists, DecisionBatch* dst) {
  const nn::Matrix& x = src.features();
  const int f = x.cols();
  const size_t row_bytes = sizeof(double) * static_cast<size_t>(f);
  dst->Clear();
  dst->AddItem(n, f);
  double* out = dst->mutable_features().data();
  for (int i = 0; i < n; ++i) {
    std::memcpy(out + static_cast<size_t>(i) * f,
                x.data() + static_cast<size_t>(take[i]) * f, row_bytes);
  }
  if (!lists) return;
  const nn::Neighbors& g = src.neighbors();
  nn::Neighbors& out_g = dst->mutable_neighbors();
  for (int i = 0; i < n; ++i) {
    const int r = take[i];
    for (int e = g.offsets[r]; e < g.offsets[r + 1]; ++e) {
      const int j = map[g.cols[e]];
      if (j >= 0) out_g.cols.push_back(j);
    }
    out_g.offsets.push_back(out_g.edges());
  }
}

}  // namespace

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

int FleetQNetwork::ClassifyRows(const DecisionBatch& batch) {
  const nn::Matrix& x = batch.features();
  const int m = batch.total_rows();
  const int f = x.cols();
  RowClasses& s = classes_;
  s.cls.resize(m);
  s.prev.resize(m);
  s.rep.resize(m);
  s.hash.resize(m);
  size_t slots = 2;
  while (slots < 2 * static_cast<size_t>(m)) slots <<= 1;
  s.table.resize(slots);

  // Round 0: the row's exact feature bits.
  const double* data = x.data();
  const size_t row_bytes = sizeof(double) * static_cast<size_t>(f);
  auto row_hash = [&](int r) {
    uint64_t h = 0;
    for (int c = 0; c < f; ++c) {
      uint64_t bits;
      std::memcpy(&bits, data + static_cast<size_t>(r) * f + c, sizeof bits);
      h = Mix(h ^ bits);
    }
    return h;
  };
  auto row_equal = [&](int a, int b) {
    return std::memcmp(data + static_cast<size_t>(a) * f,
                       data + static_cast<size_t>(b) * f, row_bytes) == 0;
  };
  int n = Partition(m, row_hash, row_equal, s.cls.data(), &s.rep, &s.hash,
                    &s.table);

  // Each round refines a class by (own class, the listed neighbors'
  // classes in list order): what one attention level reads. A round that
  // splits no class leaves the partition where every later round would.
  if (attention_levels_ > 0 && n < m) {
    const nn::Neighbors& g = batch.neighbors();
    DPDP_CHECK(g.rows() == m);
    const int* off = g.offsets.data();
    const int* cols = g.cols.data();
    for (int round = 0; round < attention_levels_ && n < m; ++round) {
      std::swap(s.cls, s.prev);
      const int* prev = s.prev.data();
      auto list_hash = [&](int r) {
        uint64_t h = Mix(static_cast<uint64_t>(prev[r]));
        for (int e = off[r]; e < off[r + 1]; ++e) {
          h = Mix(h ^ static_cast<uint64_t>(prev[cols[e]]));
        }
        return h;
      };
      auto list_equal = [&](int a, int b) {
        if (prev[a] != prev[b]) return false;
        const int len = off[a + 1] - off[a];
        if (off[b + 1] - off[b] != len) return false;
        for (int e = 0; e < len; ++e) {
          if (prev[cols[off[a] + e]] != prev[cols[off[b] + e]]) return false;
        }
        return true;
      };
      const int refined = Partition(m, list_hash, list_equal, s.cls.data(),
                                    &s.rep, &s.hash, &s.table);
      if (refined == n) break;
      n = refined;
    }
  }
  if (n == m) return n;

  // One representative row per class; its list names classes, so the
  // compact lists may repeat a column and need not ascend.
  GatherRows(batch, s.rep.data(), n, s.cls.data(), attention_levels_ > 0,
             &compact_);
  return n;
}

const DecisionBatch& FleetQNetwork::ReceptiveField(
    const DecisionBatch& batch, const std::vector<int>& rows) {
  const int m = batch.total_rows();
  RowClasses& s = classes_;
  // R_L is the listed rows; R_(l-1) adds every row a row of R_l lists.
  // field_pos holds each row's highest level l with the row in R_l, so
  // only the rows that entered at level l need their lists walked.
  s.field_pos.assign(m, -1);
  s.frontier.clear();
  int last = -1;
  for (const int r : rows) {
    DPDP_CHECK(r > last && r < m && "rows must ascend within the batch");
    last = r;
    s.field_pos[r] = attention_levels_;
    s.frontier.push_back(r);
  }
  if (attention_levels_ > 0) {
    const nn::Neighbors& g = batch.neighbors();
    DPDP_CHECK(g.rows() == m);
    for (int l = attention_levels_; l > 0; --l) {
      s.reached.clear();
      for (const int r : s.frontier) {
        for (int e = g.offsets[r]; e < g.offsets[r + 1]; ++e) {
          const int j = g.cols[e];
          if (s.field_pos[j] < l - 1) {
            s.field_pos[j] = l - 1;
            s.reached.push_back(j);
          }
        }
      }
      std::swap(s.frontier, s.reached);
    }
  }
  // R_0 in ascending batch order; field_pos becomes the field position.
  s.field.clear();
  for (int r = 0; r < m; ++r) {
    if (s.field_pos[r] < 0) continue;
    s.field_pos[r] = static_cast<int>(s.field.size());
    s.field.push_back(r);
  }
  if (static_cast<int>(s.field.size()) == m) {
    listed_ = rows;
    return batch;
  }
  listed_.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) listed_[i] = s.field_pos[rows[i]];
  // A row of R_1 keeps its whole list, which lies in R_0. A row of
  // R_0 \ R_1 keeps its listed rows inside R_0: its upper levels go
  // wrong, and no listed row's Q reads them.
  GatherRows(batch, s.field.data(), static_cast<int>(s.field.size()),
             s.field_pos.data(), attention_levels_ > 0, &field_);
  return field_;
}

const nn::Matrix& FleetQNetwork::EvaluateBatch(const DecisionBatch& batch) {
  DPDP_TRACE_SPAN("nn.forward");
  backward_ready_ = false;
  const int m = batch.total_rows();
  const int n = ClassifyRows(batch);
  QNetworkMetrics& metrics = Metrics();
  metrics.rows_requested->Add(static_cast<uint64_t>(m));
  metrics.rows_evaluated->Add(static_cast<uint64_t>(n));
  if (n == m) return Forward(batch);
  const nn::Matrix& q = Forward(compact_);
  q_.Resize(m, 1);
  for (int r = 0; r < m; ++r) q_(r, 0) = q(classes_.cls[r], 0);
  return q_;
}

const nn::Matrix& FleetQNetwork::EvaluateBatch(
    const DecisionBatch& batch, const std::vector<int>& rows) {
  DPDP_TRACE_SPAN("nn.forward");
  backward_ready_ = false;
  const DecisionBatch& run = ReceptiveField(batch, rows);
  const int n = ClassifyRows(run);
  QNetworkMetrics& metrics = Metrics();
  metrics.rows_requested->Add(static_cast<uint64_t>(batch.total_rows()));
  metrics.rows_evaluated->Add(static_cast<uint64_t>(n));
  // With every row its own class, classes are numbered in row order.
  const nn::Matrix& q = Forward(n == run.total_rows() ? run : compact_);
  q_.Resize(static_cast<int>(rows.size()), 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    q_(static_cast<int>(i), 0) = q(classes_.cls[listed_[i]], 0);
  }
  return q_;
}

const nn::Matrix& FleetQNetwork::TrainForward(const DecisionBatch& batch,
                                              const std::vector<int>& rows) {
  DPDP_TRACE_SPAN("nn.forward");
  const DecisionBatch& run = ReceptiveField(batch, rows);
  QNetworkMetrics& metrics = Metrics();
  metrics.train_rows_requested->Add(
      static_cast<uint64_t>(batch.total_rows()));
  metrics.train_rows_evaluated->Add(static_cast<uint64_t>(run.total_rows()));
  const nn::Matrix& q = Forward(run);
  backward_ready_ = true;
  forward_rows_ = run.total_rows();
  if (static_cast<int>(rows.size()) == forward_rows_) return q;
  q_.Resize(static_cast<int>(rows.size()), 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    q_(static_cast<int>(i), 0) = q(listed_[i], 0);
  }
  return q_;
}

void FleetQNetwork::BackwardBatch(const nn::Matrix& dq) {
  DPDP_CHECK(backward_ready_ && "BackwardBatch must follow TrainForward");
  DPDP_CHECK(dq.cols() == 1 &&
             dq.rows() == static_cast<int>(listed_.size()) &&
             "dq must hold one gradient per listed row");
  backward_ready_ = false;
  if (dq.rows() == forward_rows_) {
    Backward(dq);
    return;
  }
  // Rows outside the listed ones get an exact +0, which adds nothing to
  // any gradient (DESIGN.md "Receptive fields").
  dfield_.Resize(forward_rows_, 1);
  dfield_.Fill(0.0);
  for (size_t i = 0; i < listed_.size(); ++i) {
    dfield_(listed_[i], 0) = dq(static_cast<int>(i), 0);
  }
  Backward(dfield_);
}

MlpQNetwork::MlpQNetwork(const AgentConfig& config, Rng* rng)
    : FleetQNetwork(/*levels=*/0),
      mlp_({kStateFeatures, config.hidden_dim, config.hidden_dim, 1}, rng) {}

const nn::Matrix& MlpQNetwork::Forward(const DecisionBatch& batch) {
  return mlp_.Forward(batch.features(), ws_);
}

void MlpQNetwork::Backward(const nn::Matrix& dq) { mlp_.Backward(dq, ws_); }

std::vector<nn::Parameter*> MlpQNetwork::Params() { return mlp_.Params(); }

GraphQNetwork::GraphQNetwork(const AgentConfig& config, Rng* rng)
    : FleetQNetwork(config.attention_levels),
      levels_(config.attention_levels),
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

const nn::Matrix& GraphQNetwork::Forward(const DecisionBatch& batch) {
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
  return head_.Forward(concat_, ws_);
}

void GraphQNetwork::Backward(const nn::Matrix& dq) {
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
