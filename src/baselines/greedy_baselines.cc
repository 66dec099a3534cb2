#include "baselines/greedy_baselines.h"

#include <limits>

#include "util/status.h"

namespace dpdp {
namespace {

/// Lowest-index feasible option minimizing `key(option)`.
template <typename KeyFn>
int ArgMinFeasible(const DispatchContext& context, KeyFn key) {
  int best = -1;
  double best_key = std::numeric_limits<double>::infinity();
  for (const VehicleOption& opt : context.options) {
    if (!opt.feasible) continue;
    const double k = key(opt);
    if (k < best_key) {
      best_key = k;
      best = opt.vehicle;
    }
  }
  DPDP_CHECK(best >= 0);
  return best;
}

}  // namespace

int MinIncrementalLengthDispatcher::Act(const DispatchContext& context) {
  return ArgMinFeasible(context, [](const VehicleOption& o) {
    return o.incremental_length;
  });
}

int MinTotalLengthDispatcher::Act(const DispatchContext& context) {
  return ArgMinFeasible(context,
                        [](const VehicleOption& o) { return o.new_length; });
}

int MaxAcceptedOrdersDispatcher::Act(const DispatchContext& context) {
  // Most accepted orders first; ties broken by cheapest insertion so the
  // rule stays deterministic and sensible among equally loaded vehicles.
  int best = -1;
  int best_orders = -1;
  double best_incr = std::numeric_limits<double>::infinity();
  for (const VehicleOption& opt : context.options) {
    if (!opt.feasible) continue;
    if (opt.num_assigned_orders > best_orders ||
        (opt.num_assigned_orders == best_orders &&
         opt.incremental_length < best_incr)) {
      best_orders = opt.num_assigned_orders;
      best_incr = opt.incremental_length;
      best = opt.vehicle;
    }
  }
  DPDP_CHECK(best >= 0);
  return best;
}

}  // namespace dpdp
