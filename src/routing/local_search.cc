#include "routing/local_search.h"

#include <set>

namespace dpdp {

LocalSearchResult ImproveSuffixByReinsertion(const RoutePlanner& planner,
                                             const PlanAnchor& anchor,
                                             std::vector<Stop> suffix,
                                             int depot_node, int max_passes,
                                             const VehicleConfig* vehicle) {
  LocalSearchResult out;
  Result<SuffixSchedule> initial =
      planner.CheckSuffix(anchor, suffix, depot_node, vehicle);
  DPDP_CHECK_OK(initial.status());
  out.initial_length = initial.value().length;
  out.schedule = std::move(initial).value();

  // Orders already onboard at the anchor cannot be re-inserted (their
  // pickup lies in the committed prefix); every fully-contained order is
  // movable.
  const std::set<int> onboard(anchor.onboard.begin(), anchor.onboard.end());
  std::vector<int> movable;
  for (const Stop& s : suffix) {
    if (s.type == StopType::kPickup && onboard.count(s.order_id) == 0) {
      movable.push_back(s.order_id);
    }
  }

  double current_length = out.initial_length;
  Insertion best;
  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (const int order_id : movable) {
      // Remove the order's pickup + delivery pair...
      std::vector<Stop> without;
      without.reserve(suffix.size());
      for (const Stop& s : suffix) {
        if (s.order_id != order_id) without.push_back(s);
      }
      if (without.size() != suffix.size() - 2) continue;  // Not in suffix.

      // ...and re-insert it at its best feasible position.
      if (!planner.BestInsertion(anchor, without, depot_node,
                                 planner.order(order_id), &best, vehicle)) {
        continue;  // Removal broke feasibility elsewhere.
      }
      if (best.schedule.length < current_length - 1e-9) {
        current_length = best.schedule.length;
        out.schedule = best.schedule;
        suffix.swap(best.suffix);
        ++out.moves_applied;
        improved = true;
      }
    }
    if (!improved) break;
  }

  out.suffix = std::move(suffix);
  out.final_length = current_length;
  return out;
}

}  // namespace dpdp
