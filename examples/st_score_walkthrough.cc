// Walks through the ST Score computation of paper Fig. 3 step by step:
//  1. predict the day's spatial-temporal demand (STD matrix, Eq. 3);
//  2. plan a tentative route for one vehicle (Algorithm 2);
//  3. build the spatial-temporal *capacity* vector (Definition 3) and the
//     *demand* vector (Definition 4) along that route;
//  4. reduce them to the ST Score with the Jensen-Shannon divergence
//     (Definition 5) — and compare two candidate routes by score.

#include <cstdio>

#include "core/dpdp.h"

int main() {
  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/300.0));
  const auto& net = *dataset.network();

  // --- 1. Demand prediction ----------------------------------------------
  dpdp::AverageStdPredictor predictor;
  const dpdp::nn::Matrix predicted =
      predictor.Predict(dataset.History(/*day=*/8, /*k=*/4)).value();
  std::printf("Predicted STD matrix: %d factories x %d intervals, total "
              "volume %.0f\n\n",
              predicted.rows(), predicted.cols(), predicted.SumAll());

  // --- 2. Plan a route for a vehicle --------------------------------------
  const dpdp::Instance inst = dataset.SampleInstance("walkthrough", 6, 1,
                                                     /*day_lo=*/8,
                                                     /*day_hi=*/8, 5);
  dpdp::RoutePlanner planner(&inst);
  const dpdp::PlanAnchor anchor{inst.vehicle_depots[0],
                                inst.order(0).create_time_min, {}};

  std::vector<dpdp::Stop> route;
  dpdp::Insertion ins;
  for (int i = 0; i < 3; ++i) {
    if (planner.BestInsertion(anchor, route, inst.vehicle_depots[0],
                              inst.order(i), &ins)) {
      route = ins.suffix;
    }
  }
  const auto schedule =
      planner.CheckSuffix(anchor, route, inst.vehicle_depots[0]);
  DPDP_CHECK(schedule.ok());

  std::printf("Planned route (%zu stops):\n", route.size());
  for (size_t s = 0; s < route.size(); ++s) {
    std::printf("  %zu. %-12s arrive %6.1f min  serve %6.1f  residual "
                "capacity %5.1f\n",
                s + 1, route[s].DebugString().c_str(),
                schedule.value().stops[s].arrival,
                schedule.value().stops[s].service_start,
                schedule.value().residual_capacity[s]);
  }
  std::printf("  route length %.1f km, back at depot at %.1f min\n\n",
              schedule.value().length, schedule.value().completion_time);

  // --- 3. The two spatial-temporal vectors --------------------------------
  std::vector<double> capacity;
  std::vector<double> demand;
  dpdp::BuildStVectors(net, route, schedule.value(), predicted,
                       inst.num_time_intervals, inst.horizon_minutes,
                       &capacity, &demand);
  std::printf("capacity vector (eta):");
  for (double c : capacity) std::printf(" %.1f", c);
  std::printf("\ndemand vector   (tau):");
  for (double d : demand) std::printf(" %.1f", d);
  std::printf("\n\n");

  // --- 4. ST Score ---------------------------------------------------------
  dpdp::StScoreScratch scratch;
  const double js = dpdp::ComputeStScore(
      net, route, schedule.value(), predicted, inst.num_time_intervals,
      inst.horizon_minutes, dpdp::DivergenceKind::kJensenShannon, &scratch);
  const double kl = dpdp::ComputeStScore(
      net, route, schedule.value(), predicted, inst.num_time_intervals,
      inst.horizon_minutes, dpdp::DivergenceKind::kSymmetricKl, &scratch);
  std::printf("ST Score (JS divergence):            %.4f\n", js);
  std::printf("ST Score (symmetric KL alternative): %.4f\n", kl);

  // Compare against the reversed route: same stops, worse alignment check.
  std::printf("\nSmaller score = spare capacity travels through demand hot "
              "spots = better hitchhiking odds.\n");
  return 0;
}
