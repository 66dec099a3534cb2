// Reproduces the supplementary-material comparison of divergence metrics:
// ST-DDGN trained with the Jensen-Shannon ST Score vs the symmetric-KL ST
// Score. The paper reports JS performing slightly better.
//
// Env knobs: DPDP_EPISODES, DPDP_SEEDS, DPDP_FAST.

#include <cstdio>

#include "core/dpdp.h"

int main() {
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 10 : 120,
                         1, 1000000);
  const int seeds =
      dpdp::EnvIntStrict("DPDP_SEEDS", dpdp::FastMode() ? 1 : 2, 1, 10000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/150.0));
  const dpdp::Instance inst =
      dataset.SampleInstance("supp", 150, 50, 0, 9, 42);
  dpdp::AverageStdPredictor predictor;
  const dpdp::nn::Matrix predicted =
      predictor.Predict(dataset.History(10, 4)).value();

  std::printf("=== Supplementary: JS vs symmetric-KL ST Score (%d episodes "
              "x %d seeds) ===\n\n",
              episodes, seeds);

  dpdp::TextTable table({"divergence", "NUV mean", "TC mean", "TC std"});
  for (const auto& [name, kind] :
       {std::pair<const char*, dpdp::DivergenceKind>{
            "Jensen-Shannon", dpdp::DivergenceKind::kJensenShannon},
        {"symmetric KL", dpdp::DivergenceKind::kSymmetricKl}}) {
    std::vector<double> nuv;
    std::vector<double> tc;
    for (int s = 0; s < seeds; ++s) {
      dpdp::AgentConfig config = dpdp::MakeStDdgnConfig(31 + 7 * s);
      config.divergence = kind;
      dpdp::DqnFleetAgent agent(config, "ST-DDGN");
      dpdp::SimulatorConfig sim_config;
      sim_config.predicted_std = predicted;
      sim_config.divergence = kind;
      dpdp::Environment env(&inst, sim_config);
      agent.set_training(true);
      dpdp::TrainOptions options;
      options.episodes = episodes;
      dpdp::RunEpisodes(&env, &agent, options);
      agent.set_training(false);
      agent.FinalizeTraining();
      const dpdp::EpisodeResult r = dpdp::RunEpisode(&env, &agent);
      nuv.push_back(r.nuv);
      tc.push_back(r.total_cost);
    }
    table.AddRow({name, dpdp::TextTable::Num(dpdp::Mean(nuv), 1),
                  dpdp::TextTable::Num(dpdp::Mean(tc)),
                  dpdp::TextTable::Num(dpdp::Stddev(tc))});
    std::printf("trained with %s\n", name);
  }
  std::printf("\n%s\n", table.ToString().c_str());
  return 0;
}
