#ifndef DPDP_STPRED_ST_SCORE_H_
#define DPDP_STPRED_ST_SCORE_H_

#include <span>
#include <vector>

#include "model/order.h"
#include "model/vehicle.h"
#include "net/road_network.h"
#include "nn/matrix.h"
#include "routing/route_planner.h"
#include "stpred/divergence.h"

namespace dpdp {

/// Buffers of ComputeStScore: the route's capacity and demand vectors and
/// the divergence's normalized forms. An owner that scores many routes
/// (the Environment scores every feasible vehicle of every decision) keeps
/// one, so scoring allocates nothing once the buffers have grown.
struct StScoreScratch {
  std::vector<double> capacity;
  std::vector<double> demand;
  DivergenceScratch divergence;
};

/// Computes the ST Score (Definition 5) of a planned route suffix:
/// the divergence between the route's spatial-temporal *capacity* vector
/// (residual capacity on arrival at each factory stop, Definition 3) and
/// its spatial-temporal *demand* vector (the predicted STD matrix sampled
/// at each stop's (factory, arrival-interval) coordinate, Definition 4).
///
/// Smaller scores mean the vehicle's spare capacity travels through the
/// demand hot spots — a higher chance of "hitchhiking" future orders.
///
/// Depot stops carry no demand and are skipped. A route visiting no
/// factory yields score 0.
double ComputeStScore(const RoadNetwork& network,
                      std::span<const Stop> suffix,
                      const SuffixSchedule& schedule,
                      const nn::Matrix& predicted_std, int num_intervals,
                      double horizon_min, DivergenceKind divergence,
                      StScoreScratch* scratch);

/// Extracts the capacity and demand vectors without reducing them to a
/// score (for tests and the walkthrough example). Both outputs have one
/// entry per factory stop of the suffix, in visit order.
void BuildStVectors(const RoadNetwork& network, std::span<const Stop> suffix,
                    const SuffixSchedule& schedule,
                    const nn::Matrix& predicted_std, int num_intervals,
                    double horizon_min, std::vector<double>* capacity,
                    std::vector<double>* demand);

}  // namespace dpdp

#endif  // DPDP_STPRED_ST_SCORE_H_
