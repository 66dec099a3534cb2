#ifndef DPDP_NN_LAYERS_H_
#define DPDP_NN_LAYERS_H_

#include <iosfwd>
#include <vector>

#include "nn/gemm.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace dpdp::nn {

/// A trainable tensor: value plus accumulated gradient of identical shape.
struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Fill(0.0); }
};

/// Copies all parameter values from `src` to `dst` (same shapes required).
/// Used to sync DDQN target networks.
void CopyParameters(const std::vector<Parameter*>& src,
                    const std::vector<Parameter*>& dst);

/// Polyak averaging: dst <- (1 - tau) * dst + tau * src.
void SoftUpdateParameters(const std::vector<Parameter*>& src,
                          const std::vector<Parameter*>& dst, double tau);

/// Serializes parameter values (shapes + doubles, little-endian binary).
void SaveParameters(const std::vector<Parameter*>& params, std::ostream* os);

/// Restores values saved by SaveParameters; shapes must match exactly.
/// Returns false on malformed input or shape mismatch.
bool LoadParameters(std::istream* is, const std::vector<Parameter*>& params);

/// Serializes a single matrix (i32 rows, i32 cols, row-major doubles).
/// Building block of the checkpoint format (optimizer moments, best-weight
/// snapshots) alongside SaveParameters.
void SaveMatrix(const Matrix& m, std::ostream* os);

/// Reads a matrix written by SaveMatrix into `m` (any prior shape is
/// replaced). Returns false on malformed input.
bool LoadMatrix(std::istream* is, Matrix* m);

/// Fully-connected layer y = x W + b. Weights use He initialization
/// (suited to the ReLU nets in this project).
///
/// Forward/Backward must be called in strict alternation: each Backward
/// consumes the cache left by the immediately preceding Forward. The input
/// is borrowed for that cache, not copied: `x` must stay alive and
/// unmodified until the matching Backward (or the next Forward).
///
/// The Workspace overloads are the hot path: they run on the blocked gemm
/// kernels and return references to layer-owned buffers (valid until the
/// layer's next Forward/Backward), so a steady-state pass performs no heap
/// allocation. The value-returning overloads are convenience wrappers over
/// the same code (via ThreadLocalWorkspace) that copy the result out.
class Linear {
 public:
  Linear(int in_dim, int out_dim, Rng* rng);

  /// x: (batch x in_dim) -> (batch x out_dim).
  const Matrix& Forward(const Matrix& x, Workspace& ws);
  Matrix Forward(const Matrix& x);

  /// dy: (batch x out_dim) -> dx (batch x in_dim); accumulates dW, db.
  const Matrix& Backward(const Matrix& dy, Workspace& ws);
  Matrix Backward(const Matrix& dy);

  std::vector<Parameter*> Params();

  int in_dim() const { return w_.value.rows(); }
  int out_dim() const { return w_.value.cols(); }

 private:
  Parameter w_;  ///< (in_dim x out_dim)
  Parameter b_;  ///< (1 x out_dim)
  const Matrix* x_ = nullptr;  ///< Borrowed Forward input.
  Matrix y_;   ///< Layer-owned Forward output.
  Matrix dx_;  ///< Layer-owned Backward output.
};

/// ReLU. Backward reads the mask off the cached output: y > 0 exactly
/// where x > 0.
class ReLU {
 public:
  const Matrix& Forward(const Matrix& x, Workspace& ws);
  Matrix Forward(const Matrix& x);
  const Matrix& Backward(const Matrix& dy, Workspace& ws);
  Matrix Backward(const Matrix& dy);

 private:
  Matrix y_;
  Matrix dx_;
};

/// Multi-layer perceptron: Linear layers with a ReLU after each hidden
/// layer and a linear output layer. `dims` = {in, h1, ..., out}.
///
/// The Workspace overloads return a reference to the last layer's buffer;
/// it stays valid until this Mlp's next Forward/Backward call.
class Mlp {
 public:
  Mlp(const std::vector<int>& dims, Rng* rng);

  const Matrix& Forward(const Matrix& x, Workspace& ws);
  Matrix Forward(const Matrix& x);
  const Matrix& Backward(const Matrix& dy, Workspace& ws);
  Matrix Backward(const Matrix& dy);

  std::vector<Parameter*> Params();

  int in_dim() const;
  int out_dim() const;

 private:
  std::vector<Linear> linears_;
  std::vector<ReLU> relus_;
};

}  // namespace dpdp::nn

#endif  // DPDP_NN_LAYERS_H_
