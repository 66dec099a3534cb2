#include "nn/gemm.h"

#include <algorithm>
#include <atomic>

#if defined(__FMA__) && defined(__AVX__)
#include <immintrin.h>
#endif

#include "obs/metrics.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace dpdp::nn {
namespace {

/// Whether every multiply-accumulate in this TU fuses (single rounding).
/// Fusion must be EXPLICIT: compiler FP contraction is decided per
/// expression, so the reference loop and the kernels can otherwise end up
/// with different roundings in the same TU (observed: GCC paired the
/// reference's products into vmulpd + vaddsd while contracting the kernels
/// into vfmadd). Every accumulation below routes through MulAdd/MulAddV so
/// kernel and reference round identically either way.
#if defined(__FMA__) && defined(__AVX__)
#define DPDP_GEMM_FMA 1
#endif

inline double MulAdd(double acc, double a, double b) {
#ifdef DPDP_GEMM_FMA
  return __builtin_fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// Register-tile shape of the micro-kernel. kTileJ spans one packed-panel
/// row (contiguous, so the tj loop auto-vectorizes); kTileI rows share
/// each loaded panel value, cutting B traffic kTileI-fold.
constexpr int kTileI = 4;
constexpr int kTileJ = 8;

int PanelCount(int n) { return (n + kTileJ - 1) / kTileJ; }

/// Packs b (k x n) into j-panels of width kTileJ: panel p holds
/// dst[p*k*kTileJ + kk*kTileJ + tj] = b(kk, p*kTileJ + tj), zero-padded in
/// the tail panel. One pass over b in row order (streaming reads).
void PackPanelsFromColumns(const Matrix& b, double* dst) {
  const int k = b.rows();
  const int n = b.cols();
  for (int p = 0; p < PanelCount(n); ++p) {
    const int j0 = p * kTileJ;
    const int tj_n = std::min(kTileJ, n - j0);
    double* panel = dst + static_cast<size_t>(p) * k * kTileJ;
    for (int kk = 0; kk < k; ++kk) {
      const double* brow = b.data() + static_cast<size_t>(kk) * n + j0;
      double* d = panel + static_cast<size_t>(kk) * kTileJ;
      for (int tj = 0; tj < tj_n; ++tj) d[tj] = brow[tj];
      for (int tj = tj_n; tj < kTileJ; ++tj) d[tj] = 0.0;
    }
  }
}

/// Packs b (n x k) — logically b^T — into the same panel layout:
/// dst[p*k*kTileJ + kk*kTileJ + tj] = b(p*kTileJ + tj, kk). This is the
/// transposition pack of GemmTransposedB.
void PackPanelsFromRows(const Matrix& b, double* dst) {
  const int n = b.rows();
  const int k = b.cols();
  for (int p = 0; p < PanelCount(n); ++p) {
    const int j0 = p * kTileJ;
    const int tj_n = std::min(kTileJ, n - j0);
    double* panel = dst + static_cast<size_t>(p) * k * kTileJ;
    for (int tj = 0; tj < tj_n; ++tj) {
      const double* brow = b.data() + static_cast<size_t>(j0 + tj) * k;
      for (int kk = 0; kk < k; ++kk) panel[kk * kTileJ + tj] = brow[kk];
    }
    for (int tj = tj_n; tj < kTileJ; ++tj) {
      for (int kk = 0; kk < k; ++kk) panel[kk * kTileJ + tj] = 0.0;
    }
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define DPDP_GEMM_VECTOR_EXT 1
/// Four-double SIMD lane (GCC/Clang vector extension). Lowered to one ymm
/// op under AVX2 and to xmm pairs on a generic build; either way each lane
/// is an independent scalar chain, so the determinism contract holds.
typedef double V4d __attribute__((vector_size(32)));

inline V4d LoadU(const double* p) {
  V4d v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU(double* p, V4d v) { __builtin_memcpy(p, &v, sizeof(v)); }

/// Vector-lane counterpart of MulAdd: fused exactly when MulAdd fuses, so
/// every lane rounds like the scalar chains.
inline V4d MulAddV(V4d acc, V4d a, V4d b) {
#ifdef DPDP_GEMM_FMA
  return _mm256_fmadd_pd(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// Hand-tiled 4x8 micro-kernel over a full row tile: eight V4d
/// accumulators + four broadcasts + two panel loads stay inside the
/// 16-register SIMD file, which GCC's autovectorizer fails to achieve from
/// the scalar loops (it spills the accumulator tile to the stack and drops
/// to ~half the throughput of even the naive kernel). Each accumulator lane
/// still sums its k terms in ascending order with the shared MulAdd
/// rounding.
///
/// `a` points at the tile's first A value. Row-major A (kColumnA false:
/// the forward product and dX) has unit k-stride and `stride` between
/// rows. Column-walked A (kColumnA true: the weight gradient dW = X^T dY
/// of GemmTransposedA, which reads X down its columns) has unit i-stride
/// and `stride` between k steps, so the tile's four A values at step kk
/// are adjacent. Both read A in place and run the same chains.
template <bool kColumnA>
inline void MicroKernel4x8(const double* a, long stride, const double* panel,
                           int k, double acc[kTileI][kTileJ]) {
  const long i_step = kColumnA ? 1 : stride;
  const long k_step = kColumnA ? stride : 1;
  const double* a0 = a;
  const double* a1 = a + i_step;
  const double* a2 = a + 2 * i_step;
  const double* a3 = a + 3 * i_step;
  V4d c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  for (int kk = 0; kk < k; ++kk) {
    const long ka = kk * k_step;
    const double* bk = panel + static_cast<size_t>(kk) * kTileJ;
    const V4d b0 = LoadU(bk);
    const V4d b1 = LoadU(bk + 4);
    const V4d v0 = {a0[ka], a0[ka], a0[ka], a0[ka]};
    const V4d v1 = {a1[ka], a1[ka], a1[ka], a1[ka]};
    const V4d v2 = {a2[ka], a2[ka], a2[ka], a2[ka]};
    const V4d v3 = {a3[ka], a3[ka], a3[ka], a3[ka]};
    c00 = MulAddV(c00, v0, b0);
    c01 = MulAddV(c01, v0, b1);
    c10 = MulAddV(c10, v1, b0);
    c11 = MulAddV(c11, v1, b1);
    c20 = MulAddV(c20, v2, b0);
    c21 = MulAddV(c21, v2, b1);
    c30 = MulAddV(c30, v3, b0);
    c31 = MulAddV(c31, v3, b1);
  }
  StoreU(acc[0], c00);
  StoreU(acc[0] + 4, c01);
  StoreU(acc[1], c10);
  StoreU(acc[1] + 4, c11);
  StoreU(acc[2], c20);
  StoreU(acc[2] + 4, c21);
  StoreU(acc[3], c30);
  StoreU(acc[3] + 4, c31);
}
#endif  // DPDP_GEMM_VECTOR_EXT

/// The blocked core shared by every public variant. `a_i_stride` /
/// `a_k_stride` describe how A is addressed (Gemm walks rows, the
/// transposed-A variant walks columns); `packed` holds B in panel layout.
/// Computes out rows [i_begin, i_end). Every out(i, j) accumulates its k
/// terms in ascending order into one chain, so the result is independent
/// of tiling and of how callers split the i range (range splits land on
/// kTileI block boundaries, so each element always takes the same path).
void GemmCore(const double* a, long a_i_stride, long a_k_stride, int k,
              const double* packed, int n, const double* bias, double* out,
              long out_stride, bool accumulate, int i_begin, int i_end) {
  for (int i0 = i_begin; i0 < i_end; i0 += kTileI) {
    const int ti_n = std::min(kTileI, i_end - i0);
    for (int p = 0; p < PanelCount(n); ++p) {
      const int j0 = p * kTileJ;
      const int tj_n = std::min(kTileJ, n - j0);
      const double* panel = packed + static_cast<size_t>(p) * k * kTileJ;
      double acc[kTileI][kTileJ] = {};
      bool done = false;
#ifdef DPDP_GEMM_VECTOR_EXT
      if (ti_n == kTileI && a_k_stride == 1) {
        MicroKernel4x8<false>(a + static_cast<size_t>(i0) * a_i_stride,
                              a_i_stride, panel, k, acc);
        done = true;
      } else if (ti_n == kTileI && a_i_stride == 1) {
        MicroKernel4x8<true>(a + i0, a_k_stride, panel, k, acc);
        done = true;
      }
#endif
      if (!done) {
        // Remainder path (partial tiles). Same per-element ascending-k
        // chains as the micro-kernel.
        for (int kk = 0; kk < k; ++kk) {
          const double* bk = panel + static_cast<size_t>(kk) * kTileJ;
          for (int ti = 0; ti < ti_n; ++ti) {
            const double av =
                a[static_cast<size_t>(i0 + ti) * a_i_stride +
                  static_cast<size_t>(kk) * a_k_stride];
            for (int tj = 0; tj < kTileJ; ++tj) {
              acc[ti][tj] = MulAdd(acc[ti][tj], av, bk[tj]);
            }
          }
        }
      }
      for (int ti = 0; ti < ti_n; ++ti) {
        double* orow = out + static_cast<size_t>(i0 + ti) * out_stride + j0;
        for (int tj = 0; tj < tj_n; ++tj) {
          double v = acc[ti][tj];
          if (bias != nullptr) v += bias[j0 + tj];
          orow[tj] = accumulate ? orow[tj] + v : v;
        }
      }
    }
  }
}

obs::Counter* GemmFlopsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("nn.gemm_flops");
  return counter;
}

/// 0 = not yet initialized from the environment. Atomic because the first
/// GEMM calls of a process may come from many serving/client threads at
/// once; concurrent lazy inits all store the same env-derived value.
std::atomic<int> g_gemm_threads{0};

/// Pool dedicated to GEMM fan-out. Sized once, at the first parallel
/// dispatch, from the thread count active at that moment; later
/// SetGemmThreads increases cap at this size. Never destroyed.
ThreadPool* GemmPool(int threads) {
  static ThreadPool* pool = new ThreadPool(threads);
  return pool;
}

/// Runs GemmCore over [0, m), fanning out contiguous row-block ranges when
/// the matrix is big enough and DPDP_GEMM_THREADS allows. Tasks write
/// disjoint out rows and each element's arithmetic is identical wherever
/// it runs, so the fan-out is bit-transparent.
void DispatchCore(const double* a, long a_i_stride, long a_k_stride, int m,
                  int k, const double* packed, int n, const double* bias,
                  double* out, long out_stride, bool accumulate) {
  const int threads = GemmThreads();
  const long long flops = 2LL * m * n * k;
  if (threads > 1 && flops >= kGemmParallelMinFlops && m > kTileI) {
    const int num_blocks = (m + kTileI - 1) / kTileI;
    const int tasks = std::min(threads, num_blocks);
    GemmPool(threads)->ParallelFor(tasks, [&](int t) {
      const int b0 = static_cast<int>(
          static_cast<long long>(num_blocks) * t / tasks);
      const int b1 = static_cast<int>(
          static_cast<long long>(num_blocks) * (t + 1) / tasks);
      GemmCore(a, a_i_stride, a_k_stride, k, packed, n, bias, out,
               out_stride, accumulate, b0 * kTileI,
               std::min(m, b1 * kTileI));
    });
  } else {
    GemmCore(a, a_i_stride, a_k_stride, k, packed, n, bias, out, out_stride,
             accumulate, 0, m);
  }
  GemmFlopsCounter()->Add(static_cast<uint64_t>(flops));
}

size_t PackedSize(int k, int n) {
  return static_cast<size_t>(PanelCount(n)) * k * kTileJ;
}

}  // namespace

Workspace& ThreadLocalWorkspace() {
  thread_local Workspace ws;
  return ws;
}

int GemmThreads() {
  int n = g_gemm_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    n = EnvIntStrict("DPDP_GEMM_THREADS", 1, 1, 256);
    g_gemm_threads.store(n, std::memory_order_relaxed);
  }
  return n;
}

void SetGemmThreads(int n) {
  g_gemm_threads.store(std::max(1, n), std::memory_order_relaxed);
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out, Workspace* ws) {
  GemmBias(a, b, Matrix(), out, ws);
}

void GemmBias(const Matrix& a, const Matrix& b, const Matrix& bias,
              Matrix* out, Workspace* ws) {
  DPDP_CHECK(a.cols() == b.rows());
  DPDP_CHECK(bias.empty() || (bias.rows() == 1 && bias.cols() == b.cols()));
  DPDP_CHECK(out != &a && out != &b && out != &bias);
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  out->Resize(m, n);
  if (m == 0 || n == 0) return;
  double* packed = ws->PackBuffer(PackedSize(k, n)).data();
  PackPanelsFromColumns(b, packed);
  DispatchCore(a.data(), /*a_i_stride=*/k, /*a_k_stride=*/1, m, k, packed, n,
               bias.empty() ? nullptr : bias.data(), out->data(), n,
               /*accumulate=*/false);
}

void GemmTransposedB(const Matrix& a, const Matrix& b, Matrix* out,
                     Workspace* ws) {
  DPDP_CHECK(a.cols() == b.cols());
  DPDP_CHECK(out != &a && out != &b);
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  out->Resize(m, n);
  if (m == 0 || n == 0) return;
  double* packed = ws->PackBuffer(PackedSize(k, n)).data();
  PackPanelsFromRows(b, packed);
  DispatchCore(a.data(), /*a_i_stride=*/k, /*a_k_stride=*/1, m, k, packed, n,
               /*bias=*/nullptr, out->data(), n, /*accumulate=*/false);
}

void GemmReference(const Matrix& a, const Matrix& b, Matrix* out) {
  DPDP_CHECK(a.cols() == b.rows());
  DPDP_CHECK(out != &a && out != &b);
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  out->Resize(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int kk = 0; kk < k; ++kk) s = MulAdd(s, a(i, kk), b(kk, j));
      (*out)(i, j) = s;
    }
  }
}

void GemmTransposedA(const Matrix& a, const Matrix& b, Matrix* out,
                     Workspace* ws, bool accumulate) {
  DPDP_CHECK(a.rows() == b.rows());
  DPDP_CHECK(out != &a && out != &b);
  const int m = a.cols();
  const int k = a.rows();
  const int n = b.cols();
  if (accumulate) {
    DPDP_CHECK(out->rows() == m && out->cols() == n);
  } else {
    out->Resize(m, n);
  }
  if (m == 0 || n == 0) return;
  double* packed = ws->PackBuffer(PackedSize(k, n)).data();
  PackPanelsFromColumns(b, packed);
  // A is walked down its columns: element (i, kk) of the logical A^T is
  // a(kk, i), i.e. i strides by 1 and kk by a.cols().
  DispatchCore(a.data(), /*a_i_stride=*/1, /*a_k_stride=*/a.cols(), m, k,
               packed, n, /*bias=*/nullptr, out->data(), n, accumulate);
}

}  // namespace dpdp::nn
