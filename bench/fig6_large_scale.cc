// Reproduces Fig. 6: NUV and TC on large-scale instances (50 vehicles
// dispatched to serve 150 delivery orders). Shape to reproduce:
//   * baseline 2 exhausts the whole fleet;
//   * baseline 3 minimizes NUV but pays higher operation cost than
//     baseline 1;
//   * baseline 1 is the best heuristic on TC;
//   * graph-based DRL (DGN, ST-DDGN) beats all heuristics on TC with
//     ST-DDGN ahead, using fewer vehicles than baseline 1.
//
// Env knobs: DPDP_INSTANCES, DPDP_EPISODES, DPDP_SEEDS, DPDP_FAST.

#include <cstdio>
#include <map>

#include "core/dpdp.h"

int main() {
  const int num_instances =
      dpdp::EnvIntStrict("DPDP_INSTANCES", 1, 1, 10000);
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 10 : 150,
                         1, 1000000);
  const int seeds = dpdp::EnvIntStrict("DPDP_SEEDS", 2, 1, 10000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/150.0));
  dpdp::AverageStdPredictor predictor;

  std::printf("=== Fig. 6: large-scale comparison (50 vehicles / 150 "
              "orders) ===\n");
  std::printf("(%d instances; DRL: %d episodes x %d seeds)\n\n",
              num_instances, episodes, seeds);

  dpdp::TextTable nuv_table({"method", "per-instance NUV", "mean NUV"});
  dpdp::TextTable tc_table(
      {"method", "per-instance TC", "mean TC", "TC std"});

  std::map<std::string, std::vector<double>> nuv;
  std::map<std::string, std::vector<double>> tc;
  std::map<std::string, std::vector<double>> tc_std;
  std::vector<std::string> method_order;
  auto record = [&](const dpdp::MethodSummary& s) {
    if (nuv.find(s.method) == nuv.end()) method_order.push_back(s.method);
    nuv[s.method].push_back(s.nuv_mean());
    tc[s.method].push_back(s.tc_mean());
    tc_std[s.method].push_back(s.tc_std());
  };

  for (int i = 0; i < num_instances; ++i) {
    const dpdp::Instance inst = dataset.SampleInstance(
        "large" + std::to_string(i), 150, 50, /*day_lo=*/0, /*day_hi=*/9,
        /*seed=*/42 + i);
    const dpdp::nn::Matrix predicted =
        predictor.Predict(dataset.History(10, 4)).value();

    dpdp::MinIncrementalLengthDispatcher b1;
    dpdp::MinTotalLengthDispatcher b2;
    dpdp::MaxAcceptedOrdersDispatcher b3;
    record(dpdp::RunBaseline(inst, &b1));
    record(dpdp::RunBaseline(inst, &b2));
    record(dpdp::RunBaseline(inst, &b3));
    // The DRL methods are independent sweeps: run them concurrently and
    // record the summaries in method order so output stays deterministic.
    const std::vector<std::string> methods = dpdp::ComparisonDrlMethods();
    std::vector<dpdp::MethodSummary> summaries(methods.size());
    dpdp::GlobalThreadPool()->ParallelFor(
        static_cast<int>(methods.size()), [&](int m) {
          summaries[m] = dpdp::RunDrlMethod(inst, predicted, methods[m],
                                            episodes, seeds,
                                            /*seed_base=*/17 + i);
        });
    for (const dpdp::MethodSummary& s : summaries) record(s);
    std::printf("instance %d done\n", i);
  }

  for (const std::string& method : method_order) {
    std::string per_nuv;
    std::string per_tc;
    for (size_t i = 0; i < nuv[method].size(); ++i) {
      if (i > 0) {
        per_nuv += ' ';
        per_tc += ' ';
      }
      per_nuv += dpdp::TextTable::Num(nuv[method][i], 1);
      per_tc += dpdp::TextTable::Num(tc[method][i], 0);
    }
    nuv_table.AddRow({method, per_nuv,
                      dpdp::TextTable::Num(dpdp::Mean(nuv[method]), 1)});
    tc_table.AddRow({method, per_tc,
                     dpdp::TextTable::Num(dpdp::Mean(tc[method])),
                     dpdp::TextTable::Num(dpdp::Mean(tc_std[method]))});
  }
  std::printf("\n(a) NUV\n%s\n(b) TC\n%s\n", nuv_table.ToString().c_str(),
              tc_table.ToString().c_str());

  const double best_heuristic_tc = dpdp::Mean(tc["baseline1_min_incremental"]);
  const double st_ddgn_tc = dpdp::Mean(tc["ST-DDGN"]);
  std::printf("ST-DDGN vs best heuristic TC: %.1f vs %.1f (%+.2f%%)\n",
              st_ddgn_tc, best_heuristic_tc,
              100.0 * (st_ddgn_tc - best_heuristic_tc) / best_heuristic_tc);
  return 0;
}
