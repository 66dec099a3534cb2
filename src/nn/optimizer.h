#ifndef DPDP_NN_OPTIMIZER_H_
#define DPDP_NN_OPTIMIZER_H_

#include <iosfwd>
#include <vector>

#include "nn/layers.h"

namespace dpdp::nn {

/// Adam (Kingma & Ba) with bias correction and optional gradient clipping,
/// over a fixed parameter list.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double clip_norm = 0.0);

  /// Applies one update using the gradients currently accumulated in the
  /// parameters, then zeroes all gradients.
  void Step();

  /// Serializes the optimizer's mutable state (step count + first/second
  /// moments). Hyperparameters are not written — they are reconstructed
  /// from config on restore, and a shape mismatch fails LoadState.
  void SaveState(std::ostream* os) const;

  /// Restores state written by SaveState. Returns false on malformed input
  /// or moment-shape mismatch with the current parameter list.
  bool LoadState(std::istream* is);

 private:
  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  void ClipGradNorm(double max_norm);

  std::vector<Parameter*> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double clip_norm_;
  long long t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace dpdp::nn

#endif  // DPDP_NN_OPTIMIZER_H_
