#ifndef DPDP_NN_MATRIX_H_
#define DPDP_NN_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace dpdp::nn {

/// Dense row-major matrix of doubles. This is the numeric workhorse under
/// the neural-network substrate; everything (vectors included) is a Matrix
/// with vectors represented as 1xN or Nx1.
///
/// The class is deliberately small: the networks in this project are tiny
/// (state dim 5, hidden dims <= 64), so clarity beats BLAS.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0);

  /// Copies carry the rows x cols elements only, not the spare backing
  /// store a shrinking Resize leaves behind. Copy-assignment reuses the
  /// destination's store when it is large enough.
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Builds a matrix from nested initializer data; all rows must have the
  /// same length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  /// Reshapes to rows x cols WITHOUT zeroing: newly exposed elements are
  /// unspecified (zero only the first time the backing store grows) and
  /// element positions are preserved only while `cols` is unchanged. The
  /// backing store never shrinks, so a matrix reused as scratch reaches a
  /// steady state with no allocation and no memset per call. Callers must
  /// overwrite every element before reading.
  void Resize(int rows, int cols);

  /// Pre-grows the backing store to hold rows x cols without changing the
  /// current shape. Lets long-lived scratch matrices front-load their one
  /// allocation.
  void Reserve(int rows, int cols);

  double& at(int r, int c) {
    DPDP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double at(int r, int c) const {
    DPDP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Unchecked element access for hot loops.
  double& operator()(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Matrix product this(rows x k) * other(k x cols).
  Matrix MatMul(const Matrix& other) const;

  /// Matrix product with `other` transposed: this(rows x k) * other^T.
  Matrix MatMulTransposed(const Matrix& other) const;

  /// this^T * other.
  Matrix TransposedMatMul(const Matrix& other) const;

  Matrix Transpose() const;

  /// Elementwise operations; shapes must match exactly.
  Matrix Add(const Matrix& other) const;
  Matrix Sub(const Matrix& other) const;
  Matrix Hadamard(const Matrix& other) const;
  Matrix Scale(double factor) const;

  /// In-place accumulate: this += other (shapes must match).
  void AddInPlace(const Matrix& other);
  /// In-place accumulate: this += factor * other.
  void AddScaled(const Matrix& other, double factor);
  void Fill(double value);

  /// Adds `row` (1 x cols) to every row of this matrix.
  Matrix AddRowBroadcast(const Matrix& row) const;

  /// Returns a 1 x cols matrix with the sum of all rows.
  Matrix SumRows() const;

  /// Returns row r as a 1 x cols matrix.
  Matrix Row(int r) const;
  /// Copies `row` (1 x cols) into row r.
  void SetRow(int r, const Matrix& row);

  /// Row-wise softmax (numerically stabilized).
  Matrix SoftmaxRows() const;

  double SumAll() const;
  double MaxAll() const;
  /// Frobenius norm of the matrix.
  double FrobeniusNorm() const;
  /// Frobenius norm of (this - other).
  double FrobeniusDistance(const Matrix& other) const;

  /// True when all elements are within `tol` of `other`'s.
  bool AllClose(const Matrix& other, double tol = 1e-9) const;

  /// True when no element is NaN or +/-Inf. Used by the dispatch-time
  /// degradation guards to reject poisoned network outputs.
  bool AllFinite() const;

  std::string DebugString(int max_rows = 8, int max_cols = 8) const;

 private:
  int rows_;
  int cols_;
  /// May hold more than rows_*cols_ elements after a shrinking Resize;
  /// every loop must bound itself by size(), never data_.size().
  std::vector<double> data_;
};

}  // namespace dpdp::nn

#endif  // DPDP_NN_MATRIX_H_
