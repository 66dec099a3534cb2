#include "nn/attention.h"

#include <algorithm>
#include <cmath>

namespace dpdp::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(int d_model, int num_heads,
                                               Rng* rng)
    : d_model_(d_model),
      num_heads_(num_heads),
      d_head_(d_model / num_heads),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
  DPDP_CHECK(num_heads > 0);
  DPDP_CHECK(d_model % num_heads == 0);
}

const Matrix& MultiHeadSelfAttention::Forward(const Matrix& x,
                                              const Neighbors& neighbors,
                                              Workspace& ws) {
  const int n = x.rows();
  DPDP_CHECK(x.cols() == d_model_);
  DPDP_CHECK(neighbors.rows() == n);
  const int* cols = neighbors.cols.data();
  const int* row = neighbors.offsets.data();

  neighbors_ = &neighbors;
  q_ = &wq_.Forward(x, ws);
  k_ = &wk_.Forward(x, ws);
  v_ = &wv_.Forward(x, ws);

  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));
  // Uninitialized resize is safe: the softmax pass writes every edge
  // weight, and each concat segment is zeroed before its weighted sum.
  attn_.Resize(num_heads_, neighbors.edges());
  concat_.Resize(n, d_model_);

  for (int h = 0; h < num_heads_; ++h) {
    const int off = h * d_head_;
    double* a = attn_.data() + static_cast<size_t>(h) * neighbors.edges();
    for (int i = 0; i < n; ++i) {
      const int eb = row[i];
      const int ee = row[i + 1];
      // Numerically-stabilized softmax over the listed neighbors.
      double mx = -1e300;
      for (int e = eb; e < ee; ++e) {
        const int j = cols[e];
        double s = 0.0;
        for (int c = 0; c < d_head_; ++c) {
          s += (*q_)(i, off + c) * (*k_)(j, off + c);
        }
        s *= scale;
        a[e] = s;
        mx = std::max(mx, s);
      }
      DPDP_CHECK(mx > -1e299);  // Every row must attend to something.
      double denom = 0.0;
      for (int e = eb; e < ee; ++e) {
        a[e] = std::exp(a[e] - mx);
        denom += a[e];
      }
      for (int e = eb; e < ee; ++e) a[e] /= denom;
      // Weighted sum of values for this head.
      for (int c = 0; c < d_head_; ++c) concat_(i, off + c) = 0.0;
      for (int e = eb; e < ee; ++e) {
        const double w = a[e];
        if (w == 0.0) continue;
        const int j = cols[e];
        for (int c = 0; c < d_head_; ++c) {
          concat_(i, off + c) += w * (*v_)(j, off + c);
        }
      }
    }
  }
  return wo_.Forward(concat_, ws);
}

Matrix MultiHeadSelfAttention::Forward(const Matrix& x,
                                       const Neighbors& neighbors) {
  return Forward(x, neighbors, ThreadLocalWorkspace());
}

const Matrix& MultiHeadSelfAttention::Backward(const Matrix& dy,
                                               Workspace& ws) {
  const int n = dy.rows();
  DPDP_CHECK(dy.cols() == d_model_);
  DPDP_CHECK(neighbors_ != nullptr && neighbors_->rows() == n);
  const int* cols = neighbors_->cols.data();
  const int* row = neighbors_->offsets.data();

  const Matrix& dconcat = wo_.Backward(dy, ws);

  dq_.Resize(n, d_model_);
  dq_.Fill(0.0);
  dk_.Resize(n, d_model_);
  dk_.Fill(0.0);
  dv_.Resize(n, d_model_);
  dv_.Fill(0.0);
  da_.resize(neighbors_->edges());
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  for (int h = 0; h < num_heads_; ++h) {
    const int off = h * d_head_;
    const double* a =
        attn_.data() + static_cast<size_t>(h) * neighbors_->edges();
    for (int i = 0; i < n; ++i) {
      const int eb = row[i];
      const int ee = row[i + 1];
      // dA(i, j) = dconcat(i, head) . V(j, head); dV += A^T dconcat.
      for (int e = eb; e < ee; ++e) {
        const int j = cols[e];
        double s = 0.0;
        for (int c = 0; c < d_head_; ++c) {
          s += dconcat(i, off + c) * (*v_)(j, off + c);
          dv_(j, off + c) += a[e] * dconcat(i, off + c);
        }
        da_[e] = s;
      }
      // Softmax backward: dS = A .* (dA - sum_j dA_j A_j).
      double dot = 0.0;
      for (int e = eb; e < ee; ++e) dot += da_[e] * a[e];
      for (int e = eb; e < ee; ++e) {
        const double ds = a[e] * (da_[e] - dot) * scale;
        if (ds == 0.0) continue;
        const int j = cols[e];
        for (int c = 0; c < d_head_; ++c) {
          dq_(i, off + c) += ds * (*k_)(j, off + c);
          dk_(j, off + c) += ds * (*q_)(i, off + c);
        }
      }
    }
  }

  // Each projection owns its dX buffer, so the three stay valid together
  // and one pass sums them in place.
  const Matrix& dxq = wq_.Backward(dq_, ws);
  const Matrix& dxk = wk_.Backward(dk_, ws);
  const Matrix& dxv = wv_.Backward(dv_, ws);
  dx_.Resize(n, d_model_);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d_model_; ++c) {
      dx_(r, c) = (dxq(r, c) + dxk(r, c)) + dxv(r, c);
    }
  }
  return dx_;
}

Matrix MultiHeadSelfAttention::Backward(const Matrix& dy) {
  return Backward(dy, ThreadLocalWorkspace());
}

std::vector<Parameter*> MultiHeadSelfAttention::Params() {
  std::vector<Parameter*> out;
  for (Linear* l : {&wq_, &wk_, &wv_, &wo_}) {
    for (Parameter* p : l->Params()) out.push_back(p);
  }
  return out;
}

}  // namespace dpdp::nn
