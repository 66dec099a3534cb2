#ifndef DPDP_BASELINES_GREEDY_BASELINES_H_
#define DPDP_BASELINES_GREEDY_BASELINES_H_

#include "sim/dispatcher.h"

namespace dpdp {

/// Baseline 1 (Mitrovic-Minic & Laporte insertion rule; the algorithm
/// deployed in the paper's UAT environment): dispatch the order to the
/// feasible vehicle with the smallest *incremental* route length.
class MinIncrementalLengthDispatcher : public Dispatcher {
 public:
  const char* name() const override { return "baseline1_min_incremental"; }
  int Act(const DispatchContext& context) override;
};

/// Baseline 2: dispatch to the feasible vehicle with the smallest *total*
/// route length after accepting the order.
class MinTotalLengthDispatcher : public Dispatcher {
 public:
  const char* name() const override { return "baseline2_min_total"; }
  int Act(const DispatchContext& context) override;
};

/// Baseline 3 (adapted from Grandinetti et al.): dispatch to the feasible
/// vehicle that already carries the largest number of accepted orders,
/// minimizing the number of used vehicles.
class MaxAcceptedOrdersDispatcher : public Dispatcher {
 public:
  const char* name() const override { return "baseline3_max_orders"; }
  int Act(const DispatchContext& context) override;
};

}  // namespace dpdp

#endif  // DPDP_BASELINES_GREEDY_BASELINES_H_
