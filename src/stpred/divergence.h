#ifndef DPDP_STPRED_DIVERGENCE_H_
#define DPDP_STPRED_DIVERGENCE_H_

#include <span>
#include <vector>

namespace dpdp {

/// Divergence metric used by the ST Score (Definition 5). The paper adopts
/// Jensen-Shannon; symmetric KL is the supplementary-material alternative.
enum class DivergenceKind { kJensenShannon, kSymmetricKl };

/// Buffers the divergences below normalize into: the two distributions
/// and, for Jensen-Shannon, their mixture. A caller that keeps one across
/// calls makes them allocation-free once the buffers have grown.
struct DivergenceScratch {
  std::vector<double> p;
  std::vector<double> q;
  std::vector<double> m;
};

/// Writes into `out` (resized to v.size()) the probability distribution of
/// a non-negative vector with additive smoothing `eps` (guards empty/zero
/// vectors: the result is then uniform): negatives are clamped to zero,
/// eps is added, and each entry is divided by the running total.
void NormalizeDistribution(std::span<const double> v, std::vector<double>* out,
                           double eps = 1e-9);

/// KL(p || q) over distributions of equal length (natural log), summed in
/// ascending index. Both inputs must already be smoothed/normalized; q
/// entries must be positive.
double KlDivergence(std::span<const double> p, std::span<const double> q);

/// Jensen-Shannon divergence of two non-negative vectors of equal length.
/// Inputs are normalized into `scratch`; the result lies in [0, ln 2].
double JsDivergence(std::span<const double> a, std::span<const double> b,
                    DivergenceScratch* scratch);

/// Symmetrized KL: 0.5 * (KL(p||q) + KL(q||p)), inputs normalized into
/// `scratch` with smoothing.
double SymmetricKlDivergence(std::span<const double> a,
                             std::span<const double> b,
                             DivergenceScratch* scratch);

/// Dispatch on `kind`.
double Divergence(DivergenceKind kind, std::span<const double> a,
                  std::span<const double> b, DivergenceScratch* scratch);

}  // namespace dpdp

#endif  // DPDP_STPRED_DIVERGENCE_H_
