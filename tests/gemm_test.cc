#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "nn/gemm.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace dpdp::nn {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng->Normal();
  }
  return m;
}

/// Exact elementwise equality — the kernels promise bit-identity to the
/// ordered reference, not closeness.
void ExpectBitEqual(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      ASSERT_EQ(got(r, c), want(r, c)) << "at (" << r << ", " << c << ")";
    }
  }
}

/// Shapes chosen to cover full 4x8 micro-kernel tiles, partial tiles in
/// both dimensions, single rows/columns, and k values around the panel
/// width.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},  {1, 5, 9},  {3, 7, 5},   {4, 8, 8},    {5, 9, 17},
    {8, 16, 8}, {13, 3, 29}, {16, 32, 24}, {31, 17, 33}, {64, 64, 64},
};

/// The weight-gradient shapes of a training minibatch, dW = X^T dY:
/// k = 1472 rows (32 items x 46 vehicles), m = a layer's input width, n
/// its output width. Full 4-row tiles walk X down its columns in the
/// vector micro-kernel; the odd m end in a remainder tile.
const Shape kTrainingShapes[] = {
    {6, 1472, 32}, {32, 1472, 32}, {96, 1472, 32}, {32, 1472, 1},
    {5, 1472, 32}, {33, 1472, 32}, {97, 1472, 32},
};

/// kShapes followed by kTrainingShapes, for the transposed-A tests.
std::vector<Shape> TransposedAShapes() {
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  shapes.insert(shapes.end(), std::begin(kTrainingShapes),
                std::end(kTrainingShapes));
  return shapes;
}

TEST(Gemm, BitEqualToOrderedReference) {
  Rng rng(101);
  Workspace ws;
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix got, want;
    Gemm(a, b, &got, &ws);
    GemmReference(a, b, &want);
    ExpectBitEqual(got, want);
  }
}

TEST(GemmBias, BitEqualToReferencePlusBias) {
  Rng rng(102);
  Workspace ws;
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    const Matrix bias = RandomMatrix(1, s.n, &rng);
    Matrix got, want;
    GemmBias(a, b, bias, &got, &ws);
    // The kernel adds the bias once, after the k-accumulation finishes.
    GemmReference(a, b, &want);
    for (int r = 0; r < want.rows(); ++r) {
      for (int c = 0; c < want.cols(); ++c) want(r, c) += bias(0, c);
    }
    ExpectBitEqual(got, want);
  }
}

TEST(GemmTransposedB, BitEqualToExplicitTranspose) {
  Rng rng(103);
  Workspace ws;
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.n, s.k, &rng);  // Given transposed.
    Matrix got, want;
    GemmTransposedB(a, b, &got, &ws);
    GemmReference(a, b.Transpose(), &want);
    ExpectBitEqual(got, want);
  }
}

TEST(GemmTransposedA, BitEqualToExplicitTranspose) {
  Rng rng(104);
  Workspace ws;
  for (const Shape& s : TransposedAShapes()) {
    SCOPED_TRACE(::testing::Message() << "m=" << s.m << " k=" << s.k);
    const Matrix a = RandomMatrix(s.k, s.m, &rng);  // Given transposed.
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix got, want;
    GemmTransposedA(a, b, &got, &ws);
    GemmReference(a.Transpose(), b, &want);
    ExpectBitEqual(got, want);
  }
}

TEST(GemmTransposedA, AccumulateAddsFinishedDotOnce) {
  // accumulate=true must compute out += a^T b with each element's full dot
  // added in ONE operation onto the prior contents — bit-equal to
  // elementwise (init + reference).
  Rng rng(105);
  Workspace ws;
  for (const Shape& s : TransposedAShapes()) {
    SCOPED_TRACE(::testing::Message() << "m=" << s.m << " k=" << s.k);
    const Matrix a = RandomMatrix(s.k, s.m, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    const Matrix init = RandomMatrix(s.m, s.n, &rng);
    Matrix got = init;
    GemmTransposedA(a, b, &got, &ws, /*accumulate=*/true);
    Matrix want;
    GemmReference(a.Transpose(), b, &want);
    for (int r = 0; r < want.rows(); ++r) {
      for (int c = 0; c < want.cols(); ++c) want(r, c) += init(r, c);
    }
    ExpectBitEqual(got, want);
  }
}

TEST(Gemm, ThreadCountDoesNotChangeBits) {
  // The parallel fan-out splits on row-block boundaries; every output
  // element runs the same code on the same inputs regardless of the
  // worker count. Both micro-kernels are split: the row-A one through
  // Gemm and the column-A one through GemmTransposedA at the largest
  // training shape. Shapes chosen to exceed kGemmParallelMinFlops so the
  // threaded path actually engages.
  const int n = 160;
  const int m = 96, k = 1472, n_grad = 32;
  ASSERT_GT(2LL * n * n * n, kGemmParallelMinFlops);
  ASSERT_GT(2LL * m * n_grad * k, kGemmParallelMinFlops);
  Rng rng(106);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  const Matrix x = RandomMatrix(k, m, &rng);
  const Matrix dy = RandomMatrix(k, n_grad, &rng);
  const int saved = GemmThreads();
  Workspace ws;
  SetGemmThreads(1);
  Matrix serial, serial_grad;
  Gemm(a, b, &serial, &ws);
  GemmTransposedA(x, dy, &serial_grad, &ws);
  SetGemmThreads(4);
  Matrix threaded, threaded_grad;
  Gemm(a, b, &threaded, &ws);
  GemmTransposedA(x, dy, &threaded_grad, &ws);
  SetGemmThreads(saved);
  ExpectBitEqual(threaded, serial);
  ExpectBitEqual(threaded_grad, serial_grad);
}

TEST(Gemm, WorkspaceReuseAcrossShapesIsHarmless) {
  // One Workspace shared across interleaved calls of different shapes and
  // kernels must give the same bits as a fresh Workspace per call: the
  // pack buffer is fully rewritten by each call.
  Rng rng(107);
  Workspace shared;
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    const Matrix bt = b.Transpose();
    Matrix got1, got2, want1, want2;
    Gemm(a, b, &got1, &shared);
    GemmTransposedB(a, bt, &got2, &shared);
    Workspace fresh1, fresh2;
    Gemm(a, b, &want1, &fresh1);
    GemmTransposedB(a, bt, &want2, &fresh2);
    ExpectBitEqual(got1, want1);
    ExpectBitEqual(got2, want2);
  }
}

TEST(Gemm, RepeatedCallsIntoSameOutputAreStable) {
  // The output matrix doubles as scratch target across calls (Resize
  // without zeroing): stale contents from a prior, larger result must not
  // leak into a smaller one.
  Rng rng(108);
  Workspace ws;
  const Matrix big_a = RandomMatrix(32, 16, &rng);
  const Matrix big_b = RandomMatrix(16, 24, &rng);
  const Matrix small_a = RandomMatrix(3, 5, &rng);
  const Matrix small_b = RandomMatrix(5, 2, &rng);
  Matrix out;
  Gemm(big_a, big_b, &out, &ws);
  Gemm(small_a, small_b, &out, &ws);
  Matrix want;
  GemmReference(small_a, small_b, &want);
  ExpectBitEqual(out, want);
}

TEST(Gemm, MatrixWrappersMatchKernels) {
  // The value-returning Matrix methods route through the same kernels via
  // the thread-local Workspace; results must be bit-identical.
  Rng rng(109);
  Workspace ws;
  const Matrix a = RandomMatrix(9, 13, &rng);
  const Matrix b = RandomMatrix(13, 7, &rng);
  Matrix want;
  Gemm(a, b, &want, &ws);
  ExpectBitEqual(a.MatMul(b), want);
  const Matrix bt = b.Transpose();
  Matrix want_t;
  GemmTransposedB(a, bt, &want_t, &ws);
  ExpectBitEqual(a.MatMulTransposed(bt), want_t);
  const Matrix at = a.Transpose();
  Matrix want_ta;
  GemmTransposedA(at, b, &want_ta, &ws);
  ExpectBitEqual(at.TransposedMatMul(b), want_ta);
}

TEST(GemmReference, MatchesHandResult) {
  const Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Matrix b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}});
  Matrix out;
  GemmReference(a, b, &out);
  EXPECT_TRUE(out.AllClose(Matrix::FromRows({{58, 64}, {139, 154}})));
}

}  // namespace
}  // namespace dpdp::nn
