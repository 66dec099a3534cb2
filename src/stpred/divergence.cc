#include "stpred/divergence.h"

#include <cmath>

#include "util/status.h"

namespace dpdp {

void NormalizeDistribution(std::span<const double> v, std::vector<double>* out,
                           double eps) {
  DPDP_CHECK(eps > 0.0);
  out->resize(v.size());
  double total = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    (*out)[i] = (v[i] > 0.0 ? v[i] : 0.0) + eps;
    total += (*out)[i];
  }
  for (double& x : *out) x /= total;
}

double KlDivergence(std::span<const double> p, std::span<const double> q) {
  DPDP_CHECK(p.size() == q.size());
  double kl = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    DPDP_CHECK(q[i] > 0.0);
    if (p[i] <= 0.0) continue;
    kl += p[i] * std::log(p[i] / q[i]);
  }
  return kl;
}

double JsDivergence(std::span<const double> a, std::span<const double> b,
                    DivergenceScratch* scratch) {
  DPDP_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  NormalizeDistribution(a, &scratch->p);
  NormalizeDistribution(b, &scratch->q);
  const std::vector<double>& p = scratch->p;
  const std::vector<double>& q = scratch->q;
  std::vector<double>& m = scratch->m;
  m.resize(p.size());
  for (size_t i = 0; i < p.size(); ++i) m[i] = 0.5 * (p[i] + q[i]);
  return 0.5 * KlDivergence(p, m) + 0.5 * KlDivergence(q, m);
}

double SymmetricKlDivergence(std::span<const double> a,
                             std::span<const double> b,
                             DivergenceScratch* scratch) {
  DPDP_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  NormalizeDistribution(a, &scratch->p);
  NormalizeDistribution(b, &scratch->q);
  return 0.5 * (KlDivergence(scratch->p, scratch->q) +
                KlDivergence(scratch->q, scratch->p));
}

double Divergence(DivergenceKind kind, std::span<const double> a,
                  std::span<const double> b, DivergenceScratch* scratch) {
  switch (kind) {
    case DivergenceKind::kJensenShannon:
      return JsDivergence(a, b, scratch);
    case DivergenceKind::kSymmetricKl:
      return SymmetricKlDivergence(a, b, scratch);
  }
  return 0.0;
}

}  // namespace dpdp
