#include "nn/optimizer.h"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpdp::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps, double clip_norm)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      clip_norm_(clip_norm) {
  DPDP_CHECK(!params_.empty());
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::ClipGradNorm(double max_norm) {
  if (max_norm <= 0.0) return;
  double sq = 0.0;
  for (const Parameter* p : params_) {
    const double n = p->grad.FrobeniusNorm();
    sq += n * n;
  }
  const double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return;
  const double factor = max_norm / norm;
  for (Parameter* p : params_) p->grad = p->grad.Scale(factor);
}

void Adam::Step() {
  DPDP_TRACE_SPAN("nn.adam_step");
  static obs::Counter* steps =
      obs::MetricsRegistry::Global().GetCounter("nn.adam_steps");
  steps->Add();
  ClipGradNorm(clip_norm_);
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double g = p->grad(r, c);
        m(r, c) = beta1_ * m(r, c) + (1.0 - beta1_) * g;
        v(r, c) = beta2_ * v(r, c) + (1.0 - beta2_) * g * g;
        const double mhat = m(r, c) / bc1;
        const double vhat = v(r, c) / bc2;
        p->value(r, c) -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      }
    }
    p->ZeroGrad();
  }
}

void Adam::SaveState(std::ostream* os) const {
  const int64_t t = t_;
  os->write(reinterpret_cast<const char*>(&t), sizeof(t));
  const uint64_t n = m_.size();
  os->write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (size_t i = 0; i < m_.size(); ++i) {
    SaveMatrix(m_[i], os);
    SaveMatrix(v_[i], os);
  }
}

bool Adam::LoadState(std::istream* is) {
  int64_t t = 0;
  is->read(reinterpret_cast<char*>(&t), sizeof(t));
  uint64_t n = 0;
  is->read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!*is || t < 0 || n != m_.size()) return false;
  std::vector<Matrix> m(m_.size());
  std::vector<Matrix> v(v_.size());
  for (size_t i = 0; i < m.size(); ++i) {
    if (!LoadMatrix(is, &m[i]) || !LoadMatrix(is, &v[i])) return false;
    if (m[i].rows() != m_[i].rows() || m[i].cols() != m_[i].cols() ||
        v[i].rows() != v_[i].rows() || v[i].cols() != v_[i].cols()) {
      return false;
    }
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

}  // namespace dpdp::nn
