// Dispatches one full industry-scale day (600+ orders, 150 vehicles) with
// the UAT heuristic and with a trained ST-DDGN policy, then prints an
// operations report: fleet usage, cost breakdown, per-vehicle load stats
// and the busiest hours — the view a logistics operator would look at.
//
// Env knobs: DPDP_EPISODES, DPDP_VEHICLES, DPDP_DAY, DPDP_FAST.

#include <cstdio>
#include <vector>

#include "core/dpdp.h"

namespace {

void PrintReport(const char* label, const dpdp::EpisodeResult& r,
                 const dpdp::Instance& inst) {
  const auto& cfg = inst.vehicle_config;
  std::printf("--- %s ---\n", label);
  std::printf("  orders served        : %d / %d\n", r.num_served,
              r.num_orders);
  std::printf("  vehicles used (NUV)  : %.0f of %d\n", r.nuv,
              inst.num_vehicles());
  std::printf("  total travel (TTL)   : %.1f km\n", r.total_travel_length);
  std::printf("  fixed cost           : %.1f\n", cfg.fixed_cost * r.nuv);
  std::printf("  operation cost       : %.1f\n",
              cfg.cost_per_km * r.total_travel_length);
  std::printf("  TOTAL COST (TC)      : %.1f\n", r.total_cost);
  std::printf("  km per served order  : %.2f\n",
              r.total_travel_length / std::max(1, r.num_served));
  std::printf("  decision wall time   : %.3f s total, %.2f ms/order\n\n",
              r.decision_wall_seconds,
              1e3 * r.decision_wall_seconds / std::max(1, r.num_served));
}

}  // namespace

int main() {
  const int day = dpdp::EnvIntStrict("DPDP_DAY", 33, 0, 100000);
  const int num_vehicles = dpdp::EnvIntStrict("DPDP_VEHICLES", 150, 1, 100000);
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 3 : 25,
                         1, 1000000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/620.0));
  const dpdp::Instance inst =
      dataset.FullDayInstance("industry_day", day, num_vehicles);
  std::printf("Industry-scale day %d: %d orders, %d vehicles, %d "
              "factories\n\n",
              day, inst.num_orders(), inst.num_vehicles(),
              inst.network->num_factories());

  // Busiest hours of the incoming order stream.
  std::vector<int> per_hour(24, 0);
  for (const dpdp::Order& o : inst.orders) {
    ++per_hour[std::min(23, static_cast<int>(o.create_time_min / 60.0))];
  }
  std::printf("orders per hour:");
  for (int h = 0; h < 24; ++h) std::printf(" %d", per_hour[h]);
  std::printf("\n\n");

  dpdp::AverageStdPredictor predictor;
  const dpdp::nn::Matrix predicted =
      predictor.Predict(dataset.History(day, 4)).value();
  dpdp::SimulatorConfig sim_config;
  sim_config.predicted_std = predicted;
  sim_config.record_visits = false;

  {
    dpdp::Environment env(&inst, sim_config);
    dpdp::MinIncrementalLengthDispatcher baseline;
    PrintReport("Baseline 1 (UAT heuristic)", dpdp::RunEpisode(&env, &baseline),
                inst);
  }
  {
    std::printf("training ST-DDGN for %d episodes...\n", episodes);
    const dpdp::DrlOutcome out = dpdp::TrainEvalOnInstance(
        inst, predicted, "ST-DDGN", /*seed=*/2, episodes);
    std::printf("(training took %.0fs)\n\n", out.train_seconds);
    PrintReport("ST-DDGN (trained)", out.eval, inst);
  }
  return 0;
}
