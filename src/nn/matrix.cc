#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/gemm.h"

namespace dpdp::nn {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {
  DPDP_CHECK(rows >= 0 && cols >= 0);
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(other.data_.begin(), other.data_.begin() + other.size()) {}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  const size_t n = static_cast<size_t>(other.size());
  if (n > data_.size()) {
    data_.assign(other.data_.begin(), other.data_.begin() + n);
  } else {
    std::copy_n(other.data_.begin(), n, data_.begin());
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  return *this;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows_; ++r) {
    DPDP_CHECK(rows[r].size() == rows[0].size());
    for (int c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  Gemm(*this, other, &out, &ThreadLocalWorkspace());
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  Matrix out;
  GemmTransposedB(*this, other, &out, &ThreadLocalWorkspace());
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  Matrix out;
  GemmTransposedA(*this, other, &out, &ThreadLocalWorkspace());
  return out;
}

void Matrix::Resize(int rows, int cols) {
  DPDP_CHECK(rows >= 0 && cols >= 0);
  const size_t need = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (need > data_.size()) data_.resize(need);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::Reserve(int rows, int cols) {
  DPDP_CHECK(rows >= 0 && cols >= 0);
  const size_t need = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (need > data_.size()) data_.resize(need);
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  DPDP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  DPDP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  const size_t n = static_cast<size_t>(size());
  Matrix out = *this;
  for (size_t i = 0; i < n; ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  DPDP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  const size_t n = static_cast<size_t>(size());
  Matrix out = *this;
  for (size_t i = 0; i < n; ++i) out.data_[i] *= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double factor) const {
  const size_t n = static_cast<size_t>(size());
  Matrix out = *this;
  for (size_t i = 0; i < n; ++i) out.data_[i] *= factor;
  return out;
}

void Matrix::AddInPlace(const Matrix& other) {
  DPDP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  const size_t n = static_cast<size_t>(size());
  for (size_t i = 0; i < n; ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, double factor) {
  DPDP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  const size_t n = static_cast<size_t>(size());
  for (size_t i = 0; i < n; ++i) {
    data_[i] += factor * other.data_[i];
  }
}

void Matrix::Fill(double value) {
  std::fill_n(data_.begin(), static_cast<size_t>(size()), value);
}

Matrix Matrix::AddRowBroadcast(const Matrix& row) const {
  DPDP_CHECK(row.rows_ == 1 && row.cols_ == cols_);
  Matrix out = *this;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(r, c) += row(0, c);
  }
  return out;
}

Matrix Matrix::SumRows() const {
  Matrix out(1, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(0, c) += (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Row(int r) const {
  DPDP_CHECK(r >= 0 && r < rows_);
  Matrix out(1, cols_);
  for (int c = 0; c < cols_; ++c) out(0, c) = (*this)(r, c);
  return out;
}

void Matrix::SetRow(int r, const Matrix& row) {
  DPDP_CHECK(r >= 0 && r < rows_);
  DPDP_CHECK(row.rows_ == 1 && row.cols_ == cols_);
  for (int c = 0; c < cols_; ++c) (*this)(r, c) = row(0, c);
}

Matrix Matrix::SoftmaxRows() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    double mx = -1e300;
    for (int c = 0; c < cols_; ++c) mx = std::max(mx, (*this)(r, c));
    double denom = 0.0;
    for (int c = 0; c < cols_; ++c) {
      out(r, c) = std::exp((*this)(r, c) - mx);
      denom += out(r, c);
    }
    DPDP_CHECK(denom > 0.0);
    for (int c = 0; c < cols_; ++c) out(r, c) /= denom;
  }
  return out;
}

double Matrix::SumAll() const {
  const size_t n = static_cast<size_t>(size());
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += data_[i];
  return s;
}

double Matrix::MaxAll() const {
  DPDP_CHECK(size() > 0);
  const size_t n = static_cast<size_t>(size());
  double m = data_[0];
  for (size_t i = 0; i < n; ++i) m = std::max(m, data_[i]);
  return m;
}

double Matrix::FrobeniusNorm() const {
  const size_t n = static_cast<size_t>(size());
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += data_[i] * data_[i];
  return std::sqrt(s);
}

double Matrix::FrobeniusDistance(const Matrix& other) const {
  DPDP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  const size_t n = static_cast<size_t>(size());
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = data_[i] - other.data_[i];
    s += d * d;
  }
  return std::sqrt(s);
}

bool Matrix::AllClose(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  const size_t n = static_cast<size_t>(size());
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

bool Matrix::AllFinite() const {
  const size_t n = static_cast<size_t>(size());
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data_[i])) return false;
  }
  return true;
}

std::string Matrix::DebugString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")[";
  for (int r = 0; r < std::min(rows_, max_rows); ++r) {
    os << (r ? ", [" : "[");
    for (int c = 0; c < std::min(cols_, max_cols); ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    if (cols_ > max_cols) os << ", ...";
    os << "]";
  }
  if (rows_ > max_rows) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace dpdp::nn
