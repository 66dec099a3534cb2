#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/attention.h"
#include "nn/matrix.h"
#include "rl/state.h"
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

/// One list per row; each list must be ascending and hold the row itself.
Neighbors FromRows(const std::vector<std::vector<int>>& rows) {
  Neighbors g;
  for (const std::vector<int>& row : rows) {
    g.cols.insert(g.cols.end(), row.begin(), row.end());
    g.offsets.push_back(g.edges());
  }
  return g;
}

Neighbors FullGraph(int n) {
  std::vector<int> all(n);
  for (int j = 0; j < n; ++j) all[j] = j;
  return FromRows(std::vector<std::vector<int>>(n, all));
}

TEST(Attention, OutputShape) {
  Rng rng(1);
  MultiHeadSelfAttention attn(8, 2, &rng);
  const Matrix y = attn.Forward(RandomMatrix(5, 8, &rng), FullGraph(5));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
}

TEST(Attention, WeightsAreRowStochasticPerEdge) {
  Rng rng(2);
  MultiHeadSelfAttention attn(8, 2, &rng);
  // Row i attends to itself and its successor only.
  const Neighbors g = FromRows({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                {0, 5}});
  attn.Forward(RandomMatrix(6, 8, &rng), g);
  const Matrix& a = attn.last_attention_weights();
  // One weight per head and edge: nothing is stored for pairs that are
  // not neighbors.
  ASSERT_EQ(a.rows(), 2);
  ASSERT_EQ(a.cols(), g.edges());
  for (int h = 0; h < a.rows(); ++h) {
    for (int i = 0; i < g.rows(); ++i) {
      double sum = 0.0;
      for (int e = g.offsets[i]; e < g.offsets[i + 1]; ++e) {
        EXPECT_GT(a(h, e), 0.0);
        sum += a(h, e);
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

TEST(Attention, SelfOnlyGraphIgnoresOtherRows) {
  // When every row lists only itself, changing row 1's features must not
  // change row 0's output.
  Rng rng(4);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = RandomMatrix(3, 8, &rng);
  const Neighbors self_only = FromRows({{0}, {1}, {2}});
  const Matrix y1 = attn.Forward(x, self_only);
  for (int c = 0; c < 8; ++c) x(1, c) += 10.0;
  const Matrix y2 = attn.Forward(x, self_only);
  for (int c = 0; c < 8; ++c) EXPECT_NEAR(y1(0, c), y2(0, c), 1e-12);
}

TEST(Attention, NonNeighborsDoNotInfluenceOutput) {
  // Row 0 attends only to {0, 1}; perturbing row 2 must not change row 0.
  Rng rng(5);
  MultiHeadSelfAttention attn(8, 2, &rng);
  const Neighbors g = FromRows({{0, 1}, {1}, {2}});
  Matrix x = RandomMatrix(3, 8, &rng);
  const Matrix y1 = attn.Forward(x, g);
  for (int c = 0; c < 8; ++c) x(2, c) -= 3.0;
  const Matrix y2 = attn.Forward(x, g);
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
  // Row i attends to {i, i + 1, i + 2} (mod n).
  const Neighbors g = FromRows({{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}});
  const Matrix x = RandomMatrix(n, d, &rng, 0.7);
  const Matrix probe = RandomMatrix(n, d, &rng, 0.5);

  const Matrix y = attn.Forward(x, g);
  const Matrix dx = attn.Backward(probe);

  auto loss = [&] { return attn.Forward(x, g).Hadamard(probe).SumAll(); };

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
    return attn.Forward(x_var, g).Hadamard(probe).SumAll();
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
  const Matrix y = attn.Forward(RandomMatrix(3, 6, &rng), FullGraph(3));
  EXPECT_EQ(y.cols(), 6);
  EXPECT_EQ(attn.last_attention_weights().rows(), 1);
}

// ------------------------------------------ dense masked reference ----
//
// The dense form the neighbor lists replaced: a {0,1} (K x K) mask built
// by a full (distance^2, index) partial sort per row, and an attention
// walk over every column that skips the zero ones. Kept here, test-only,
// so the neighbor-list builder and walk can be compared with it bit for
// bit.

Matrix DenseNeighborMask(const Matrix& positions, int k) {
  const int m = positions.rows();
  Matrix adj(m, m);
  std::vector<std::pair<double, int>> dist;
  for (int i = 0; i < m; ++i) {
    adj(i, i) = 1.0;
    if (k <= 0) continue;
    dist.clear();
    for (int j = 0; j < m; ++j) {
      if (j == i) continue;
      const double dx = positions(i, 0) - positions(j, 0);
      const double dy = positions(i, 1) - positions(j, 1);
      dist.emplace_back(dx * dx + dy * dy, j);
    }
    const int take = std::min<int>(k, static_cast<int>(dist.size()));
    std::partial_sort(dist.begin(), dist.begin() + take, dist.end());
    for (int t = 0; t < take; ++t) adj(i, dist[t].second) = 1.0;
  }
  return adj;
}

Matrix BlockDiagonal(const std::vector<Matrix>& blocks) {
  int n = 0;
  for (const Matrix& b : blocks) n += b.rows();
  Matrix out(n, n);
  int begin = 0;
  for (const Matrix& b : blocks) {
    for (int r = 0; r < b.rows(); ++r) {
      for (int c = 0; c < b.cols(); ++c) out(begin + r, begin + c) = b(r, c);
    }
    begin += b.rows();
  }
  return out;
}

class DenseMaskedAttention {
 public:
  /// Copies the parameter values of `layer`; gradients start at zero.
  DenseMaskedAttention(MultiHeadSelfAttention* layer, Rng* rng)
      : d_model_(layer->d_model()),
        num_heads_(layer->num_heads()),
        d_head_(d_model_ / num_heads_),
        wq_(d_model_, d_model_, rng),
        wk_(d_model_, d_model_, rng),
        wv_(d_model_, d_model_, rng),
        wo_(d_model_, d_model_, rng) {
    const std::vector<Parameter*> src = layer->Params();
    const std::vector<Parameter*> dst = Params();
    for (size_t p = 0; p < src.size(); ++p) dst[p]->value = src[p]->value;
  }

  std::vector<Parameter*> Params() {
    std::vector<Parameter*> out;
    for (Linear* l : {&wq_, &wk_, &wv_, &wo_}) {
      for (Parameter* p : l->Params()) out.push_back(p);
    }
    return out;
  }

  Matrix Forward(const Matrix& x, const Matrix& mask) {
    const int n = x.rows();
    mask_ = mask;
    q_ = wq_.Forward(x);
    k_ = wk_.Forward(x);
    v_ = wv_.Forward(x);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));
    attn_.assign(num_heads_, Matrix(n, n));
    concat_ = Matrix(n, d_model_);
    for (int h = 0; h < num_heads_; ++h) {
      const int off = h * d_head_;
      Matrix& a = attn_[h];
      for (int i = 0; i < n; ++i) {
        double mx = -1e300;
        for (int j = 0; j < n; ++j) {
          if (mask(i, j) == 0.0) continue;
          double s = 0.0;
          for (int c = 0; c < d_head_; ++c) {
            s += q_(i, off + c) * k_(j, off + c);
          }
          s *= scale;
          a(i, j) = s;
          mx = std::max(mx, s);
        }
        double denom = 0.0;
        for (int j = 0; j < n; ++j) {
          if (mask(i, j) == 0.0) {
            a(i, j) = 0.0;
          } else {
            a(i, j) = std::exp(a(i, j) - mx);
            denom += a(i, j);
          }
        }
        for (int j = 0; j < n; ++j) a(i, j) /= denom;
        for (int c = 0; c < d_head_; ++c) concat_(i, off + c) = 0.0;
        for (int j = 0; j < n; ++j) {
          const double w = a(i, j);
          if (w == 0.0) continue;
          for (int c = 0; c < d_head_; ++c) {
            concat_(i, off + c) += w * v_(j, off + c);
          }
        }
      }
    }
    return wo_.Forward(concat_);
  }

  Matrix Backward(const Matrix& dy) {
    const int n = dy.rows();
    const Matrix dconcat = wo_.Backward(dy);
    Matrix dq(n, d_model_);
    Matrix dk(n, d_model_);
    Matrix dv(n, d_model_);
    std::vector<double> da(n);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));
    for (int h = 0; h < num_heads_; ++h) {
      const int off = h * d_head_;
      const Matrix& a = attn_[h];
      for (int i = 0; i < n; ++i) {
        std::fill(da.begin(), da.end(), 0.0);
        for (int j = 0; j < n; ++j) {
          if (mask_(i, j) == 0.0) continue;
          double s = 0.0;
          for (int c = 0; c < d_head_; ++c) {
            s += dconcat(i, off + c) * v_(j, off + c);
            dv(j, off + c) += a(i, j) * dconcat(i, off + c);
          }
          da[j] = s;
        }
        double dot = 0.0;
        for (int j = 0; j < n; ++j) dot += da[j] * a(i, j);
        for (int j = 0; j < n; ++j) {
          if (mask_(i, j) == 0.0) continue;
          const double ds = a(i, j) * (da[j] - dot) * scale;
          if (ds == 0.0) continue;
          for (int c = 0; c < d_head_; ++c) {
            dq(i, off + c) += ds * k_(j, off + c);
            dk(j, off + c) += ds * q_(i, off + c);
          }
        }
      }
    }
    Matrix dx = wq_.Backward(dq);
    dx.AddInPlace(wk_.Backward(dk));
    dx.AddInPlace(wv_.Backward(dv));
    return dx;
  }

 private:
  int d_model_;
  int num_heads_;
  int d_head_;
  Linear wq_, wk_, wv_, wo_;
  Matrix mask_, q_, k_, v_, concat_;  // wo_ borrows concat_.
  std::vector<Matrix> attn_;
};

void ExpectBitEqual(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      ASSERT_EQ(got(r, c), want(r, c)) << what << " (" << r << ", " << c
                                       << ")";
    }
  }
}

/// Positions for an item of `m` vehicles: uniform on an 8 km square, or,
/// with `colocated`, most of them parked on one depot point so distances
/// tie.
Matrix ItemPositions(int m, bool colocated, Rng* rng) {
  Matrix pos(m, 2);
  for (int r = 0; r < m; ++r) {
    const bool at_depot = colocated && r % 4 != 1;
    pos(r, 0) = at_depot ? 2.0 : rng->Uniform(0, 8);
    pos(r, 1) = at_depot ? 3.0 : rng->Uniform(0, 8);
  }
  return pos;
}

TEST(AttentionDifferential, NeighborListsMatchDenseMaskedWalk) {
  // Every case stacks items into one batch: AppendNeighbors builds the
  // lists, the dense reference gets the block-diagonal of the per-item
  // masks. Output, dX and every parameter gradient must agree bitwise.
  struct Case {
    std::vector<int> items;  // Vehicles per item.
    int k;
    bool colocated;
    double x_scale;  // Large inputs underflow some softmax weights to 0.
  };
  const std::vector<Case> cases = {
      {{5}, 0, false, 1.0},           {{1}, 8, false, 1.0},
      {{7}, 6, false, 1.0},           {{7}, 20, false, 1.0},
      {{12}, 3, true, 1.0},           {{9}, 8, true, 0.5},
      {{30}, 8, false, 1.0},          {{30}, 8, true, 1.0},
      {{4, 1, 6, 3}, 2, false, 1.0},  {{1, 1, 1}, 8, false, 1.0},
      {{30, 9, 1, 17}, 8, true, 1.0}, {{10, 10}, 0, true, 1.0},
      {{12, 5}, 4, false, 40.0},      {{20}, 19, true, 40.0},
  };
  int underflowed = 0;
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& tc = cases[ci];
    SCOPED_TRACE("case " + std::to_string(ci));
    Rng rng(100 + ci);
    Neighbors graph;
    std::vector<Matrix> masks;
    int n = 0;
    for (int m : tc.items) {
      const Matrix pos = ItemPositions(m, tc.colocated, &rng);
      AppendNeighbors(pos, tc.k, n, &graph);
      masks.push_back(DenseNeighborMask(pos, tc.k));
      n += m;
    }
    const Matrix mask = BlockDiagonal(masks);
    const int d = 8;
    MultiHeadSelfAttention attn(d, 2, &rng);
    DenseMaskedAttention reference(&attn, &rng);
    const Matrix x = RandomMatrix(n, d, &rng, tc.x_scale);
    const Matrix dy = RandomMatrix(n, d, &rng);

    ExpectBitEqual(attn.Forward(x, graph), reference.Forward(x, mask),
                   "forward");
    ExpectBitEqual(attn.Backward(dy), reference.Backward(dy), "dX");
    const std::vector<Parameter*> got = attn.Params();
    const std::vector<Parameter*> want = reference.Params();
    ASSERT_EQ(got.size(), want.size());
    for (size_t p = 0; p < got.size(); ++p) {
      ExpectBitEqual(got[p]->grad, want[p]->grad, "parameter gradient");
    }
    const Matrix& w = attn.last_attention_weights();
    for (int e = 0; e < w.size(); ++e) underflowed += w.data()[e] == 0.0;
  }
  // The large-input cases drive some listed neighbors' weights to exactly
  // zero, so the zero-weight skips are covered too.
  EXPECT_GT(underflowed, 0);
}

}  // namespace
}  // namespace dpdp::nn
