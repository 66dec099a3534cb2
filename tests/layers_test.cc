#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace dpdp::nn {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng->Normal(0.0, scale);
  }
  return m;
}

/// Scalar "probe" loss L(y) = sum(probe .* y) so dL/dy = probe.
double ProbeLoss(const Matrix& y, const Matrix& probe) {
  return y.Hadamard(probe).SumAll();
}

/// Verifies every parameter gradient of `forward_loss` (which must run the
/// layer forward and return the probe loss, with grads accumulated by a
/// preceding Backward call) against central finite differences.
void CheckParameterGradients(const std::vector<Parameter*>& params,
                             const std::function<double()>& forward_loss,
                             double tol = 1e-5) {
  const double eps = 1e-6;
  for (Parameter* p : params) {
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double saved = p->value(r, c);
        p->value(r, c) = saved + eps;
        const double lp = forward_loss();
        p->value(r, c) = saved - eps;
        const double lm = forward_loss();
        p->value(r, c) = saved;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(p->grad(r, c), numeric, tol)
            << "param(" << r << "," << c << ")";
      }
    }
  }
}

// ------------------------------------------------------------- Linear ----

TEST(Linear, ForwardMatchesManualAffine) {
  Rng rng(1);
  Linear lin(2, 2, &rng);
  // Overwrite weights with known values via gradient-free access.
  std::vector<Parameter*> params = lin.Params();
  params[0]->value = Matrix::FromRows({{1, 2}, {3, 4}});  // W (in x out).
  params[1]->value = Matrix::FromRows({{10, 20}});        // b.
  const Matrix y = lin.Forward(Matrix::FromRows({{1, 1}}));
  EXPECT_TRUE(y.AllClose(Matrix::FromRows({{14, 26}})));
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear lin(4, 3, &rng);
  const Matrix x = RandomMatrix(5, 4, &rng);
  const Matrix probe = RandomMatrix(5, 3, &rng);

  const Matrix y = lin.Forward(x);
  const Matrix dx = lin.Backward(probe);
  auto loss = [&] { return ProbeLoss(lin.Forward(x), probe); };
  CheckParameterGradients(lin.Params(), loss);

  // Input gradient check.
  Matrix x_var = x;
  const double eps = 1e-6;
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      x_var(r, c) = x(r, c) + eps;
      const double lp = ProbeLoss(lin.Forward(x_var), probe);
      x_var(r, c) = x(r, c) - eps;
      const double lm = ProbeLoss(lin.Forward(x_var), probe);
      x_var(r, c) = x(r, c);
      EXPECT_NEAR(dx(r, c), (lp - lm) / (2.0 * eps), 1e-5);
    }
  }
}

TEST(Linear, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(3);
  Linear lin(2, 1, &rng);
  const Matrix x = Matrix::FromRows({{1.0, 2.0}});
  const Matrix dy = Matrix::FromRows({{1.0}});
  lin.Forward(x);
  lin.Backward(dy);
  const Matrix grad_once = lin.Params()[0]->grad;
  lin.Forward(x);
  lin.Backward(dy);
  EXPECT_TRUE(lin.Params()[0]->grad.AllClose(grad_once.Scale(2.0)));
}

// --------------------------------------------------------- Activations ----

TEST(ReLU, ForwardClampsAndBackwardMasks) {
  ReLU relu;
  const Matrix y = relu.Forward(Matrix::FromRows({{-1.0, 0.0, 2.0}}));
  EXPECT_TRUE(y.AllClose(Matrix::FromRows({{0.0, 0.0, 2.0}})));
  const Matrix dx = relu.Backward(Matrix::FromRows({{5.0, 5.0, 5.0}}));
  EXPECT_TRUE(dx.AllClose(Matrix::FromRows({{0.0, 0.0, 5.0}})));
}

// ----------------------------------------------------------------- Mlp ----

TEST(Mlp, ShapesAndDims) {
  Rng rng(4);
  Mlp mlp({5, 16, 8, 1}, &rng);
  EXPECT_EQ(mlp.in_dim(), 5);
  EXPECT_EQ(mlp.out_dim(), 1);
  const Matrix y = mlp.Forward(RandomMatrix(7, 5, &rng));
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 1);
}

TEST(Mlp, GradientsMatchFiniteDifferencesReLU) {
  Rng rng(5);
  Mlp mlp({3, 8, 2}, &rng);
  const Matrix x = RandomMatrix(4, 3, &rng);
  const Matrix probe = RandomMatrix(4, 2, &rng);
  mlp.Forward(x);
  mlp.Backward(probe);
  auto loss = [&] { return ProbeLoss(mlp.Forward(x), probe); };
  CheckParameterGradients(mlp.Params(), loss);
}

// --------------------------------------------------- Workspace overloads ----

void ExpectBitEqual(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) ASSERT_EQ(got(r, c), want(r, c));
  }
}

TEST(Linear, WorkspaceOverloadBitEqualToValueOverload) {
  // The value overloads are thin copies over the Workspace path, so both
  // must produce identical bits for Forward and Backward.
  Rng rng(20);
  Linear a(4, 3, &rng);
  Linear b(4, 3, &rng);
  CopyParameters(a.Params(), b.Params());
  const Matrix x = RandomMatrix(6, 4, &rng);
  const Matrix dy = RandomMatrix(6, 3, &rng);
  Workspace ws;
  const Matrix& y_ws = a.Forward(x, ws);
  const Matrix y_val = b.Forward(x);
  ExpectBitEqual(y_ws, y_val);
  const Matrix& dx_ws = a.Backward(dy, ws);
  const Matrix dx_val = b.Backward(dy);
  ExpectBitEqual(dx_ws, dx_val);
  ExpectBitEqual(a.Params()[0]->grad, b.Params()[0]->grad);
  ExpectBitEqual(a.Params()[1]->grad, b.Params()[1]->grad);
}

TEST(Mlp, WorkspaceOverloadBitEqualToValueOverload) {
  Rng rng(21);
  Mlp a({3, 8, 8, 2}, &rng);
  Mlp b({3, 8, 8, 2}, &rng);
  CopyParameters(a.Params(), b.Params());
  const Matrix x = RandomMatrix(5, 3, &rng);
  const Matrix dy = RandomMatrix(5, 2, &rng);
  Workspace ws;
  const Matrix& y_ws = a.Forward(x, ws);
  const Matrix y_val = b.Forward(x);
  ExpectBitEqual(y_ws, y_val);
  const Matrix& dx_ws = a.Backward(dy, ws);
  const Matrix dx_val = b.Backward(dy);
  ExpectBitEqual(dx_ws, dx_val);
}

TEST(Mlp, WorkspaceReuseAcrossBatchSizesIsStable) {
  // One Mlp + one Workspace driven across shrinking/growing batches: the
  // layer-owned buffers are resized without zeroing, so results must still
  // match a fresh evaluation at every size.
  Rng rng(22);
  Mlp net({4, 8, 1}, &rng);
  Mlp fresh({4, 8, 1}, &rng);
  CopyParameters(net.Params(), fresh.Params());
  Workspace ws;
  for (int batch : {7, 2, 9, 1, 5}) {
    const Matrix x = RandomMatrix(batch, 4, &rng);
    ExpectBitEqual(net.Forward(x, ws), fresh.Forward(x));
  }
}

// ---------------------------------------------------- Parameter helpers ----

TEST(Parameters, CopyAndSoftUpdate) {
  Rng rng(7);
  Mlp a({2, 4, 1}, &rng);
  Mlp b({2, 4, 1}, &rng);
  CopyParameters(a.Params(), b.Params());
  const Matrix x = RandomMatrix(3, 2, &rng);
  EXPECT_TRUE(a.Forward(x).AllClose(b.Forward(x)));

  // Perturb a, then soft-update halfway.
  a.Params()[0]->value.AddScaled(Matrix(2, 4, 1.0), 1.0);
  const double before = b.Params()[0]->value(0, 0);
  const double target = a.Params()[0]->value(0, 0);
  SoftUpdateParameters(a.Params(), b.Params(), 0.5);
  EXPECT_NEAR(b.Params()[0]->value(0, 0), 0.5 * (before + target), 1e-12);
}

TEST(Parameters, SaveLoadRoundTrip) {
  Rng rng(8);
  Mlp a({3, 5, 2}, &rng);
  Mlp b({3, 5, 2}, &rng);
  std::stringstream buffer;
  SaveParameters(a.Params(), &buffer);
  ASSERT_TRUE(LoadParameters(&buffer, b.Params()));
  const Matrix x = RandomMatrix(2, 3, &rng);
  EXPECT_TRUE(a.Forward(x).AllClose(b.Forward(x)));
}

TEST(Parameters, LoadRejectsShapeMismatch) {
  Rng rng(9);
  Mlp a({3, 5, 2}, &rng);
  Mlp b({3, 4, 2}, &rng);
  std::stringstream buffer;
  SaveParameters(a.Params(), &buffer);
  EXPECT_FALSE(LoadParameters(&buffer, b.Params()));
}

TEST(Parameters, LoadRejectsTruncatedStream) {
  Rng rng(10);
  Mlp a({3, 5, 2}, &rng);
  std::stringstream buffer;
  SaveParameters(a.Params(), &buffer);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_FALSE(LoadParameters(&truncated, a.Params()));
}

// ------------------------------------------------------------ Optimizers --

TEST(Optimizers, AdamDescendsQuadratic) {
  Parameter w(Matrix::FromRows({{-5.0}}));
  Adam adam({&w}, 0.1);
  for (int i = 0; i < 500; ++i) {
    w.grad(0, 0) = w.value(0, 0) - 3.0;
    adam.Step();
  }
  EXPECT_NEAR(w.value(0, 0), 3.0, 1e-3);
}

TEST(Optimizers, StepZeroesGradients) {
  Parameter w(Matrix::FromRows({{1.0}}));
  Adam adam({&w}, 0.01);
  w.grad(0, 0) = 1.0;
  adam.Step();
  EXPECT_DOUBLE_EQ(w.grad(0, 0), 0.0);
}

TEST(Optimizers, GradClipBoundsUpdateMagnitude) {
  // Clipping gradient 100 to norm 1 must step exactly like an unclipped
  // Adam fed gradient 1. Without the clip the two would still differ:
  // the eps term weighs lr * g / (|g| + eps) differently at |g| = 100.
  Parameter clipped(Matrix::FromRows({{0.0}}));
  Parameter unit(Matrix::FromRows({{0.0}}));
  Adam clipping({&clipped}, 1.0, 0.9, 0.999, 1e-8, /*clip_norm=*/1.0);
  Adam plain({&unit}, 1.0);
  clipped.grad(0, 0) = 100.0;
  unit.grad(0, 0) = 1.0;
  clipping.Step();
  plain.Step();
  EXPECT_EQ(clipped.value(0, 0), unit.value(0, 0));
}

// ------------------------------------------------------------------ Loss --

TEST(Loss, MseValueAndGrad) {
  EXPECT_DOUBLE_EQ(MseLoss(5.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(MseLossGrad(5.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(MseLossGrad(1.0, 3.0), -2.0);
}

TEST(Loss, HuberQuadraticInsideLinearOutside) {
  EXPECT_DOUBLE_EQ(HuberLoss(1.5, 1.0, 1.0), 0.125);
  EXPECT_DOUBLE_EQ(HuberLossGrad(1.5, 1.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(HuberLoss(4.0, 1.0, 1.0), 2.5);
  EXPECT_DOUBLE_EQ(HuberLossGrad(4.0, 1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(HuberLossGrad(-4.0, 1.0, 1.0), -1.0);
}

TEST(Loss, HuberContinuousAtThreshold) {
  const double delta = 1.0;
  EXPECT_NEAR(HuberLoss(2.0 - 1e-9, 1.0, delta),
              HuberLoss(2.0 + 1e-9, 1.0, delta), 1e-8);
}

}  // namespace
}  // namespace dpdp::nn
