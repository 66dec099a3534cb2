#include <gtest/gtest.h>

#include <cmath>

#include "nn/matrix.h"

namespace dpdp::nn {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
  m.Fill(0.0);
  EXPECT_DOUBLE_EQ(m.SumAll(), 0.0);
}

TEST(Matrix, FromRowsAndIdentity) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  const Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 2), 0.0);
}

TEST(Matrix, MatMulAgainstHandResult) {
  const Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Matrix b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}});
  const Matrix c = a.MatMul(b);
  EXPECT_TRUE(c.AllClose(Matrix::FromRows({{58, 64}, {139, 154}})));
}

TEST(Matrix, MatMulTransposedMatchesExplicitTranspose) {
  const Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Matrix b = Matrix::FromRows({{1, 0, 1}, {2, 1, 0}, {0, 3, 2},
                                     {1, 1, 1}});
  EXPECT_TRUE(a.MatMulTransposed(b).AllClose(a.MatMul(b.Transpose())));
}

TEST(Matrix, TransposedMatMulMatchesExplicitTranspose) {
  const Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Matrix b = Matrix::FromRows({{1, 0}, {2, 1}});
  EXPECT_TRUE(a.TransposedMatMul(b).AllClose(a.Transpose().MatMul(b)));
}

TEST(Matrix, ElementwiseOps) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  EXPECT_TRUE(a.Add(b).AllClose(Matrix::FromRows({{11, 22}, {33, 44}})));
  EXPECT_TRUE(b.Sub(a).AllClose(Matrix::FromRows({{9, 18}, {27, 36}})));
  EXPECT_TRUE(
      a.Hadamard(b).AllClose(Matrix::FromRows({{10, 40}, {90, 160}})));
  EXPECT_TRUE(a.Scale(2.0).AllClose(Matrix::FromRows({{2, 4}, {6, 8}})));
}

TEST(Matrix, AddScaledAndInPlace) {
  Matrix a = Matrix::FromRows({{1, 1}});
  a.AddScaled(Matrix::FromRows({{2, 4}}), 0.5);
  EXPECT_TRUE(a.AllClose(Matrix::FromRows({{2, 3}})));
  a.AddInPlace(Matrix::FromRows({{1, 1}}));
  EXPECT_TRUE(a.AllClose(Matrix::FromRows({{3, 4}})));
}

TEST(Matrix, RowBroadcastAndSumRows) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix row = Matrix::FromRows({{10, 20}});
  EXPECT_TRUE(a.AddRowBroadcast(row).AllClose(
      Matrix::FromRows({{11, 22}, {13, 24}})));
  EXPECT_TRUE(a.SumRows().AllClose(Matrix::FromRows({{4, 6}})));
}

TEST(Matrix, RowAccessors) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_TRUE(a.Row(1).AllClose(Matrix::FromRows({{3, 4}})));
  a.SetRow(0, Matrix::FromRows({{9, 9}}));
  EXPECT_DOUBLE_EQ(a(0, 0), 9.0);
}

TEST(Matrix, SoftmaxRowsSumToOneAndOrder) {
  const Matrix logits = Matrix::FromRows({{1.0, 2.0, 3.0}, {0.0, 0.0, 0.0}});
  const Matrix p = logits.SoftmaxRows();
  for (int r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_GT(p(0, 2), p(0, 1));
  EXPECT_GT(p(0, 1), p(0, 0));
  EXPECT_NEAR(p(1, 0), 1.0 / 3.0, 1e-12);
}

TEST(Matrix, SoftmaxNumericallyStableForLargeLogits) {
  const Matrix logits = Matrix::FromRows({{1000.0, 1001.0}});
  const Matrix p = logits.SoftmaxRows();
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0, 1e-12);
  EXPECT_GT(p(0, 1), p(0, 0));
}

TEST(Matrix, Norms) {
  const Matrix a = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  const Matrix b = Matrix::FromRows({{0, 0}});
  EXPECT_DOUBLE_EQ(a.FrobeniusDistance(b), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAll(), 4.0);
}

TEST(Matrix, ResizeKeepsBackingStoreAndSkipsZeroing) {
  Matrix m(4, 4, 7.0);
  const double* before = m.data();
  m.Resize(2, 4);  // Shrink: no reallocation, prefix preserved (same cols).
  EXPECT_EQ(m.data(), before);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 4);
  for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m(0, c), 7.0);
  m.Resize(4, 4);  // Grow back within capacity: still no reallocation.
  EXPECT_EQ(m.data(), before);
  EXPECT_EQ(m.size(), 16);
}

TEST(Matrix, ReserveFrontLoadsAllocationWithoutChangingShape) {
  Matrix m(2, 2, 1.0);
  m.Reserve(50, 50);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
  const double* reserved = m.data();
  m.Resize(50, 50);  // Must not reallocate after the Reserve.
  EXPECT_EQ(m.data(), reserved);
}

TEST(Matrix, ShrinkingResizeBoundsWholeMatrixOps) {
  // After a shrinking Resize the backing store still holds stale elements
  // past size(); whole-matrix reductions must ignore them.
  Matrix m(3, 2, 5.0);
  m.Resize(1, 2);
  EXPECT_DOUBLE_EQ(m.SumAll(), 10.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), std::sqrt(50.0));
  m.Fill(0.0);
  m.Resize(3, 2);
  // Re-grown region is unspecified; only shape is guaranteed.
  EXPECT_EQ(m.size(), 6);
}

TEST(Matrix, CopyCarriesOnlyTheLogicalElements) {
  Matrix shrunk(64, 8, 3.0);
  shrunk.Resize(2, 8);
  shrunk(1, 7) = 4.0;
  const Matrix copy = shrunk;
  ASSERT_EQ(copy.rows(), 2);
  ASSERT_EQ(copy.cols(), 8);
  EXPECT_DOUBLE_EQ(copy(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(copy(1, 7), 4.0);
  // The copy's store holds 2 x 8 elements, not the source's 64 x 8, so
  // growing it back must allocate.
  Matrix grown = copy;
  const double* copied_store = grown.data();
  grown.Resize(64, 8);
  EXPECT_NE(grown.data(), copied_store);

  // Copy-assignment reuses a large enough destination store...
  Matrix dst(64, 8, 0.0);
  const double* store = dst.data();
  dst = shrunk;
  EXPECT_EQ(dst.data(), store);
  ASSERT_EQ(dst.rows(), 2);
  EXPECT_DOUBLE_EQ(dst(1, 7), 4.0);
  const Matrix& alias = dst;
  dst = alias;
  EXPECT_EQ(dst.data(), store);
  EXPECT_DOUBLE_EQ(dst(1, 7), 4.0);
  // ...and grows a smaller one.
  Matrix small(1, 1, 9.0);
  small = shrunk;
  ASSERT_EQ(small.size(), 16);
  EXPECT_DOUBLE_EQ(small(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(small(1, 7), 4.0);
}

TEST(Matrix, AllCloseShapeMismatchIsFalse) {
  EXPECT_FALSE(Matrix(1, 2).AllClose(Matrix(2, 1)));
}

TEST(Matrix, DebugStringTruncates) {
  const Matrix m(20, 20, 1.0);
  const std::string s = m.DebugString(2, 2);
  EXPECT_NE(s.find("Matrix(20x20)"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

}  // namespace
}  // namespace dpdp::nn
