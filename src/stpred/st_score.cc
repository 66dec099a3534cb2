#include "stpred/st_score.h"

namespace dpdp {

void BuildStVectors(const RoadNetwork& network, std::span<const Stop> suffix,
                    const SuffixSchedule& schedule,
                    const nn::Matrix& predicted_std, int num_intervals,
                    double horizon_min, std::vector<double>* capacity,
                    std::vector<double>* demand) {
  DPDP_CHECK(capacity != nullptr && demand != nullptr);
  DPDP_CHECK(suffix.size() == schedule.stops.size());
  DPDP_CHECK(suffix.size() == schedule.residual_capacity.size());
  DPDP_CHECK(predicted_std.rows() == network.num_factories());
  DPDP_CHECK(predicted_std.cols() == num_intervals);
  capacity->clear();
  demand->clear();
  for (size_t s = 0; s < suffix.size(); ++s) {
    const int ordinal = network.FactoryOrdinal(suffix[s].node);
    if (ordinal < 0) continue;  // Depots have no delivery demand.
    const int interval = TimeIntervalIndex(schedule.stops[s].arrival,
                                           num_intervals, horizon_min);
    capacity->push_back(schedule.residual_capacity[s]);
    demand->push_back(predicted_std(ordinal, interval));
  }
}

double ComputeStScore(const RoadNetwork& network,
                      std::span<const Stop> suffix,
                      const SuffixSchedule& schedule,
                      const nn::Matrix& predicted_std, int num_intervals,
                      double horizon_min, DivergenceKind divergence,
                      StScoreScratch* scratch) {
  BuildStVectors(network, suffix, schedule, predicted_std, num_intervals,
                 horizon_min, &scratch->capacity, &scratch->demand);
  return Divergence(divergence, scratch->capacity, scratch->demand,
                    &scratch->divergence);
}

}  // namespace dpdp
