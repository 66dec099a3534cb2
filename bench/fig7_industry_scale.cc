// Reproduces Fig. 7: NUV and TC per day on industry-scale instances —
// full daily transportation streams with 600+ orders served by a fleet of
// 150+ vehicles. Shape to reproduce (paper Sec. V-C3):
//   * baseline 2 uses (nearly) the whole fleet; baseline 3 the fewest;
//   * baseline 1 is the best heuristic;
//   * DRL methods use fewer vehicles than baseline 1 and ST-DDGN attains
//     the lowest TC on most days (~10% below baseline 1 in the paper).
//
// Protocol: each DRL policy is trained once on a held-out training day
// and then evaluated greedily on each test day (the paper retrains per
// instance; training on a same-distribution day and transferring keeps
// this bench's wall time within reach — the policies are shared-weight
// per-vehicle networks, so they transfer across days directly).
//
// Env knobs: DPDP_DAYS, DPDP_EPISODES, DPDP_FAST.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dpdp.h"

int main() {
  const int num_days =
      dpdp::EnvIntStrict("DPDP_DAYS", dpdp::FastMode() ? 2 : 4, 1, 10000);
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 4 : 40,
                         1, 1000000);
  const int num_vehicles = dpdp::EnvIntStrict("DPDP_VEHICLES", 150, 1, 100000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/620.0));
  dpdp::AverageStdPredictor predictor;

  std::printf("=== Fig. 7: industry-scale comparison (600+ orders, %d "
              "vehicles) ===\n",
              num_vehicles);
  std::printf("(train day 20, %d episodes; evaluation on %d test days)\n\n",
              episodes, num_days);

  // --- Train each DRL method once on the training day -------------------
  const dpdp::Instance train_day =
      dataset.FullDayInstance("train", /*day=*/20, num_vehicles);
  const dpdp::nn::Matrix train_std =
      predictor.Predict(dataset.History(20, 4)).value();

  // Each method trains on its own agent + simulator (the instance and STD
  // prediction are shared read-only), so the four trainings run in
  // parallel on the process-wide pool.
  const std::vector<std::string> methods = dpdp::ComparisonDrlMethods();
  std::vector<std::unique_ptr<dpdp::Agent>> trained(
      methods.size());
  dpdp::GlobalThreadPool()->ParallelFor(
      static_cast<int>(methods.size()), [&](int m) {
        auto agent = dpdp::MakeAgentByName(methods[m], /*seed=*/23);
        dpdp::SimulatorConfig sim_config;
        sim_config.predicted_std = train_std;
        sim_config.record_visits = false;
        dpdp::Environment env(&train_day, sim_config);
        agent->set_training(true);
        dpdp::TrainOptions options;
        options.episodes = episodes;
        dpdp::RunEpisodes(&env, agent.get(), options);
        agent->set_training(false);
        agent->FinalizeTraining();
        trained[m] = std::move(agent);
      });
  std::map<std::string, std::unique_ptr<dpdp::Agent>> agents;
  for (size_t m = 0; m < methods.size(); ++m) {
    agents[methods[m]] = std::move(trained[m]);
    std::printf("trained %s (%d episodes)\n", methods[m].c_str(), episodes);
  }

  // --- Evaluate everything day by day ------------------------------------
  dpdp::TextTable nuv_table({"day", "b1", "b2", "b3", "DQN", "AC", "DGN",
                             "ST-DDGN", "orders"});
  dpdp::TextTable tc_table({"day", "b1", "b2", "b3", "DQN", "AC", "DGN",
                            "ST-DDGN"});
  std::map<std::string, std::vector<double>> all_nuv;
  std::map<std::string, std::vector<double>> all_tc;

  for (int d = 0; d < num_days; ++d) {
    const int day = 30 + d;  // Test period after the training day.
    const dpdp::Instance inst = dataset.FullDayInstance(
        "day" + std::to_string(d + 1), day, num_vehicles);
    dpdp::SimulatorConfig sim_config;
    sim_config.predicted_std = predictor.Predict(dataset.History(day, 4)).value();
    sim_config.record_visits = false;

    std::vector<std::string> nuv_row{"Day " + std::to_string(d + 1)};
    std::vector<std::string> tc_row{"Day " + std::to_string(d + 1)};

    dpdp::MinIncrementalLengthDispatcher b1;
    dpdp::MinTotalLengthDispatcher b2;
    dpdp::MaxAcceptedOrdersDispatcher b3;
    // One evaluation job per dispatcher; every job gets a private Environment
    // and a private result slot, and the dispatchers are all distinct
    // objects (agents carry activation caches, so they must not be shared
    // across concurrent jobs). Rows are assembled in job order afterwards.
    struct EvalJob {
      std::string label;
      dpdp::Dispatcher* dispatcher;
    };
    std::vector<EvalJob> jobs = {{"b1", &b1}, {"b2", &b2}, {"b3", &b3}};
    for (const std::string& method : methods) {
      jobs.push_back({method, agents[method].get()});
    }
    std::vector<dpdp::EpisodeResult> results(jobs.size());
    dpdp::GlobalThreadPool()->ParallelFor(
        static_cast<int>(jobs.size()), [&](int j) {
          dpdp::Environment env(&inst, sim_config);
          results[j] = dpdp::RunEpisode(&env, jobs[j].dispatcher);
        });
    for (size_t j = 0; j < jobs.size(); ++j) {
      nuv_row.push_back(dpdp::TextTable::Num(results[j].nuv, 0));
      tc_row.push_back(dpdp::TextTable::Num(results[j].total_cost, 0));
      all_nuv[jobs[j].label].push_back(results[j].nuv);
      all_tc[jobs[j].label].push_back(results[j].total_cost);
    }
    nuv_row.push_back(std::to_string(inst.num_orders()));
    nuv_table.AddRow(nuv_row);
    tc_table.AddRow(tc_row);
    std::printf("day %d done (%d orders)\n", d + 1, inst.num_orders());
  }

  std::printf("\n(a) NUV per day\n%s\n(b) TC per day\n%s\n",
              nuv_table.ToString().c_str(), tc_table.ToString().c_str());

  std::printf("means: baseline1 NUV %.1f TC %.1f | ST-DDGN NUV %.1f TC "
              "%.1f (%+.2f%% TC vs baseline1)\n",
              dpdp::Mean(all_nuv["b1"]), dpdp::Mean(all_tc["b1"]),
              dpdp::Mean(all_nuv["ST-DDGN"]), dpdp::Mean(all_tc["ST-DDGN"]),
              100.0 * (dpdp::Mean(all_tc["ST-DDGN"]) -
                       dpdp::Mean(all_tc["b1"])) /
                  dpdp::Mean(all_tc["b1"]));
  return 0;
}
