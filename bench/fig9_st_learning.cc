// Reproduces Fig. 9: spatial-temporal *capacity* distribution across
// training episodes, and the Frobenius-norm "Diff" between the demand
// distribution and the capacity distribution per episode, for ST-DDGN,
// DGN, DQN and AC on the large-scale instance. Shape to reproduce:
//   * Diff decreases as each policy iterates (the fleet learns to bring
//     spare capacity to demand hot spots);
//   * ST-DDGN ends with the smallest Diff and drops fastest.
//
// Env knobs: DPDP_EPISODES, DPDP_FAST.

#include <cstdio>
#include <map>

#include "core/dpdp.h"
#include "exp/heatmap.h"

int main() {
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 10 : 120,
                         1, 1000000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/150.0));
  const dpdp::Instance inst =
      dataset.SampleInstance("fig9", 150, 50, 0, 9, 42);
  dpdp::AverageStdPredictor predictor;
  const dpdp::nn::Matrix predicted =
      predictor.Predict(dataset.History(10, 4)).value();
  const dpdp::nn::Matrix demand = dpdp::BuildStdMatrix(
      *inst.network, inst.orders, inst.num_time_intervals,
      inst.horizon_minutes);

  std::printf("=== Fig. 9: spatial-temporal learning during policy "
              "iteration (%d episodes) ===\n\n",
              episodes);

  std::map<std::string, std::vector<double>> diffs;
  std::map<std::string, dpdp::nn::Matrix> final_capacity;
  for (const std::string& method : dpdp::ComparisonDrlMethods()) {
    auto agent = dpdp::MakeAgentByName(method, /*seed=*/5);
    dpdp::SimulatorConfig sim_config;
    sim_config.predicted_std = predicted;
    dpdp::Environment env(&inst, sim_config);
    agent->set_training(true);
    dpdp::TrainOptions options;
    options.episodes = episodes;
    options.demand_for_diff = demand;
    const dpdp::TrainingCurve curve =
        dpdp::RunEpisodes(&env, agent.get(), options);
    diffs[method] = curve.capacity_diff;
    // Greedy evaluation episode for the converged capacity distribution.
    agent->set_training(false);
    agent->FinalizeTraining();
    (void)dpdp::RunEpisode(&env, agent.get());
    final_capacity[method] = env.LastCapacityDistribution();
    std::printf("trained %s\n", method.c_str());
  }

  const int stride = std::max(1, episodes / 12);
  dpdp::TextTable table({"episode", "ST-DDGN", "DGN", "DQN", "AC"});
  for (int e = 0; e < episodes; e += stride) {
    table.AddRow({std::to_string(e),
                  dpdp::TextTable::Num(diffs["ST-DDGN"][e], 1),
                  dpdp::TextTable::Num(diffs["DGN"][e], 1),
                  dpdp::TextTable::Num(diffs["DQN"][e], 1),
                  dpdp::TextTable::Num(diffs["AC"][e], 1)});
  }
  std::printf("\nDiff (Frobenius norm demand vs capacity) per episode\n%s\n",
              table.ToString().c_str());

  std::printf("converged Diff (tail mean of last 10 episodes):\n");
  for (const std::string& method : dpdp::ComparisonDrlMethods()) {
    std::printf("  %-8s %.1f\n", method.c_str(),
                dpdp::TrainingCurve::TailMean(diffs[method], 10));
  }

  std::printf("\nconverged ST-DDGN capacity distribution (cf. demand "
              "heatmap in fig10):\n%s",
              dpdp::RenderHeatmap(final_capacity["ST-DDGN"]).c_str());
  return 0;
}
