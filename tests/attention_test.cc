#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention.h"
#include "nn/matrix.h"
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

Matrix FullMask(int n) { return Matrix(n, n, 1.0); }

TEST(Attention, OutputShape) {
  Rng rng(1);
  MultiHeadSelfAttention attn(8, 2, &rng);
  const Matrix y = attn.Forward(RandomMatrix(5, 8, &rng), FullMask(5));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
}

TEST(Attention, WeightsAreRowStochastic) {
  Rng rng(2);
  MultiHeadSelfAttention attn(8, 2, &rng);
  attn.Forward(RandomMatrix(6, 8, &rng), FullMask(6));
  for (const Matrix& a : attn.last_attention_weights()) {
    for (int i = 0; i < a.rows(); ++i) {
      double sum = 0.0;
      for (int j = 0; j < a.cols(); ++j) {
        EXPECT_GE(a(i, j), 0.0);
        sum += a(i, j);
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

TEST(Attention, MaskedPositionsGetZeroWeight) {
  Rng rng(3);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix mask(4, 4);
  // Row i attends to itself and its successor only.
  for (int i = 0; i < 4; ++i) {
    mask(i, i) = 1.0;
    mask(i, (i + 1) % 4) = 1.0;
  }
  attn.Forward(RandomMatrix(4, 8, &rng), mask);
  for (const Matrix& a : attn.last_attention_weights()) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (mask(i, j) == 0.0) {
          EXPECT_DOUBLE_EQ(a(i, j), 0.0);
        }
      }
    }
  }
}

TEST(Attention, SelfOnlyMaskIgnoresOtherRows) {
  // With a diagonal mask, changing row 1's features must not change row
  // 0's output.
  Rng rng(4);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = RandomMatrix(3, 8, &rng);
  const Matrix diag = Matrix::Identity(3);
  const Matrix y1 = attn.Forward(x, diag);
  for (int c = 0; c < 8; ++c) x(1, c) += 10.0;
  const Matrix y2 = attn.Forward(x, diag);
  for (int c = 0; c < 8; ++c) EXPECT_NEAR(y1(0, c), y2(0, c), 1e-12);
}

TEST(Attention, MaskedRowsDoNotInfluenceOutput) {
  // Row 0 attends only to {0, 1}; perturbing row 2 must not change row 0.
  Rng rng(5);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix mask(3, 3, 0.0);
  mask(0, 0) = mask(0, 1) = 1.0;
  mask(1, 1) = 1.0;
  mask(2, 2) = 1.0;
  Matrix x = RandomMatrix(3, 8, &rng);
  const Matrix y1 = attn.Forward(x, mask);
  for (int c = 0; c < 8; ++c) x(2, c) -= 3.0;
  const Matrix y2 = attn.Forward(x, mask);
  for (int c = 0; c < 8; ++c) EXPECT_NEAR(y1(0, c), y2(0, c), 1e-12);
}

TEST(Attention, ParameterCount) {
  Rng rng(6);
  MultiHeadSelfAttention attn(8, 2, &rng);
  // Wq, Wk, Wv, Wo each contribute weight + bias.
  EXPECT_EQ(attn.Params().size(), 8u);
}

TEST(Attention, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  const int n = 4;
  const int d = 8;
  MultiHeadSelfAttention attn(d, 2, &rng);
  Matrix mask(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    mask(i, i) = 1.0;
    mask(i, (i + 1) % n) = 1.0;
    mask(i, (i + 2) % n) = 1.0;
  }
  const Matrix x = RandomMatrix(n, d, &rng, 0.7);
  const Matrix probe = RandomMatrix(n, d, &rng, 0.5);

  const Matrix y = attn.Forward(x, mask);
  const Matrix dx = attn.Backward(probe);

  auto loss = [&] {
    return attn.Forward(x, mask).Hadamard(probe).SumAll();
  };

  // Parameter gradients.
  const double eps = 1e-6;
  for (Parameter* p : attn.Params()) {
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double saved = p->value(r, c);
        p->value(r, c) = saved + eps;
        const double lp = loss();
        p->value(r, c) = saved - eps;
        const double lm = loss();
        p->value(r, c) = saved;
        EXPECT_NEAR(p->grad(r, c), (lp - lm) / (2.0 * eps), 2e-5);
      }
    }
  }

  // Input gradients.
  Matrix x_var = x;
  auto loss_x = [&] {
    return attn.Forward(x_var, mask).Hadamard(probe).SumAll();
  };
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) {
      x_var(r, c) = x(r, c) + eps;
      const double lp = loss_x();
      x_var(r, c) = x(r, c) - eps;
      const double lm = loss_x();
      x_var(r, c) = x(r, c);
      EXPECT_NEAR(dx(r, c), (lp - lm) / (2.0 * eps), 2e-5);
    }
  }
}

TEST(Attention, SingleHeadEqualsMultiHeadParamCountInvariance) {
  // d_model must be divisible by heads; 1 head always works.
  Rng rng(8);
  MultiHeadSelfAttention attn(6, 1, &rng);
  const Matrix y = attn.Forward(RandomMatrix(3, 6, &rng), FullMask(3));
  EXPECT_EQ(y.cols(), 6);
  EXPECT_EQ(attn.last_attention_weights().size(), 1u);
}

}  // namespace
}  // namespace dpdp::nn
