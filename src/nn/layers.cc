#include "nn/layers.h"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

namespace dpdp::nn {

void CopyParameters(const std::vector<Parameter*>& src,
                    const std::vector<Parameter*>& dst) {
  DPDP_CHECK(src.size() == dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    DPDP_CHECK(src[i]->value.rows() == dst[i]->value.rows());
    DPDP_CHECK(src[i]->value.cols() == dst[i]->value.cols());
    dst[i]->value = src[i]->value;
  }
}

void SoftUpdateParameters(const std::vector<Parameter*>& src,
                          const std::vector<Parameter*>& dst, double tau) {
  DPDP_CHECK(src.size() == dst.size());
  DPDP_CHECK(tau >= 0.0 && tau <= 1.0);
  for (size_t i = 0; i < src.size(); ++i) {
    Matrix& d = dst[i]->value;
    const Matrix& s = src[i]->value;
    DPDP_CHECK(d.rows() == s.rows() && d.cols() == s.cols());
    for (int r = 0; r < d.rows(); ++r) {
      for (int c = 0; c < d.cols(); ++c) {
        d(r, c) = (1.0 - tau) * d(r, c) + tau * s(r, c);
      }
    }
  }
}

void SaveParameters(const std::vector<Parameter*>& params, std::ostream* os) {
  const uint64_t n = params.size();
  os->write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const Parameter* p : params) {
    const int32_t rows = p->value.rows();
    const int32_t cols = p->value.cols();
    os->write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    os->write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    os->write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(sizeof(double)) * p->value.size());
  }
}

bool LoadParameters(std::istream* is, const std::vector<Parameter*>& params) {
  uint64_t n = 0;
  is->read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!*is || n != params.size()) return false;
  for (Parameter* p : params) {
    int32_t rows = 0;
    int32_t cols = 0;
    is->read(reinterpret_cast<char*>(&rows), sizeof(rows));
    is->read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!*is || rows != p->value.rows() || cols != p->value.cols()) {
      return false;
    }
    is->read(reinterpret_cast<char*>(p->value.data()),
             static_cast<std::streamsize>(sizeof(double)) * p->value.size());
    if (!*is) return false;
  }
  return true;
}

void SaveMatrix(const Matrix& m, std::ostream* os) {
  const int32_t rows = m.rows();
  const int32_t cols = m.cols();
  os->write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  os->write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  os->write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(sizeof(double)) * m.size());
}

bool LoadMatrix(std::istream* is, Matrix* m) {
  int32_t rows = 0;
  int32_t cols = 0;
  is->read(reinterpret_cast<char*>(&rows), sizeof(rows));
  is->read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!*is || rows < 0 || cols < 0) return false;
  Matrix loaded(rows, cols);
  is->read(reinterpret_cast<char*>(loaded.data()),
           static_cast<std::streamsize>(sizeof(double)) * loaded.size());
  if (!*is) return false;
  *m = std::move(loaded);
  return true;
}

namespace {
Matrix HeInit(int in_dim, int out_dim, Rng* rng) {
  Matrix w(in_dim, out_dim);
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (int r = 0; r < in_dim; ++r) {
    for (int c = 0; c < out_dim; ++c) w(r, c) = rng->Normal(0.0, scale);
  }
  return w;
}
}  // namespace

Linear::Linear(int in_dim, int out_dim, Rng* rng)
    : w_(HeInit(in_dim, out_dim, rng)), b_(Matrix(1, out_dim)) {}

const Matrix& Linear::Forward(const Matrix& x, Workspace& ws) {
  DPDP_CHECK(x.cols() == w_.value.rows());
  x_ = &x;
  GemmBias(x, w_.value, b_.value, &y_, &ws);
  return y_;
}

Matrix Linear::Forward(const Matrix& x) {
  return Forward(x, ThreadLocalWorkspace());
}

const Matrix& Linear::Backward(const Matrix& dy, Workspace& ws) {
  DPDP_CHECK(x_ != nullptr && dy.rows() == x_->rows());
  DPDP_CHECK(dy.cols() == w_.value.cols());
  GemmTransposedA(*x_, dy, &w_.grad, &ws, /*accumulate=*/true);
  for (int r = 0; r < dy.rows(); ++r) {
    for (int c = 0; c < dy.cols(); ++c) b_.grad(0, c) += dy(r, c);
  }
  GemmTransposedB(dy, w_.value, &dx_, &ws);
  return dx_;
}

Matrix Linear::Backward(const Matrix& dy) {
  return Backward(dy, ThreadLocalWorkspace());
}

std::vector<Parameter*> Linear::Params() { return {&w_, &b_}; }

const Matrix& ReLU::Forward(const Matrix& x, Workspace& ws) {
  (void)ws;
  // Every element is written, so the uninitialized Resize is safe.
  y_.Resize(x.rows(), x.cols());
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      y_(r, c) = x(r, c) > 0.0 ? x(r, c) : 0.0;
    }
  }
  return y_;
}

Matrix ReLU::Forward(const Matrix& x) {
  return Forward(x, ThreadLocalWorkspace());
}

const Matrix& ReLU::Backward(const Matrix& dy, Workspace& ws) {
  (void)ws;
  DPDP_CHECK(dy.rows() == y_.rows());
  DPDP_CHECK(dy.cols() == y_.cols());
  dx_.Resize(dy.rows(), dy.cols());
  for (int r = 0; r < dy.rows(); ++r) {
    for (int c = 0; c < dy.cols(); ++c) {
      dx_(r, c) = dy(r, c) * (y_(r, c) > 0.0 ? 1.0 : 0.0);
    }
  }
  return dx_;
}

Matrix ReLU::Backward(const Matrix& dy) {
  return Backward(dy, ThreadLocalWorkspace());
}

Mlp::Mlp(const std::vector<int>& dims, Rng* rng) {
  DPDP_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    linears_.emplace_back(dims[i], dims[i + 1], rng);
  }
  // One ReLU per hidden layer (the output layer stays linear).
  relus_.resize(linears_.size() - 1);
}

const Matrix& Mlp::Forward(const Matrix& x, Workspace& ws) {
  // Each layer owns its output buffer, so chaining references never
  // aliases a gemm input with its output.
  const Matrix* h = &x;
  for (size_t i = 0; i < linears_.size(); ++i) {
    h = &linears_[i].Forward(*h, ws);
    if (i + 1 < linears_.size()) h = &relus_[i].Forward(*h, ws);
  }
  return *h;
}

Matrix Mlp::Forward(const Matrix& x) {
  return Forward(x, ThreadLocalWorkspace());
}

const Matrix& Mlp::Backward(const Matrix& dy, Workspace& ws) {
  const Matrix* d = &dy;
  for (size_t i = linears_.size(); i-- > 0;) {
    if (i + 1 < linears_.size()) d = &relus_[i].Backward(*d, ws);
    d = &linears_[i].Backward(*d, ws);
  }
  return *d;
}

Matrix Mlp::Backward(const Matrix& dy) {
  return Backward(dy, ThreadLocalWorkspace());
}

std::vector<Parameter*> Mlp::Params() {
  std::vector<Parameter*> out;
  for (Linear& l : linears_) {
    for (Parameter* p : l.Params()) out.push_back(p);
  }
  return out;
}

int Mlp::in_dim() const { return linears_.front().in_dim(); }
int Mlp::out_dim() const { return linears_.back().out_dim(); }

}  // namespace dpdp::nn
