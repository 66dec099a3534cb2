// Compares every dispatching policy in the library — the three greedy
// baselines and the DRL agents — on one sampled large-scale instance
// (Fig. 6 scale: 50 vehicles / 150 orders by default).
//
// Knobs (environment): DPDP_ORDERS, DPDP_VEHICLES, DPDP_EPISODES,
// DPDP_SEEDS, DPDP_FAST.

#include <cstdio>
#include <memory>

#include "core/dpdp.h"

int main() {
  using dpdp::TextTable;

  const int num_orders = dpdp::EnvIntStrict("DPDP_ORDERS", 150, 1, 100000);
  const int num_vehicles = dpdp::EnvIntStrict("DPDP_VEHICLES", 50, 1, 100000);
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 5 : 60,
                         1, 1000000);
  const int seeds =
      dpdp::EnvIntStrict("DPDP_SEEDS", dpdp::FastMode() ? 1 : 2, 1, 10000);

  dpdp::DpdpDataset dataset(dpdp::StandardDatasetConfig(
      /*seed=*/7, /*mean_orders_per_day=*/static_cast<double>(num_orders)));
  const dpdp::Instance instance =
      dataset.SampleInstance("compare", num_orders, num_vehicles,
                             /*day_lo=*/0, /*day_hi=*/9, /*seed=*/42);
  dpdp::AverageStdPredictor predictor;
  const dpdp::nn::Matrix predicted =
      predictor.Predict(dataset.History(10, 4)).value();

  std::printf("Instance: %d orders, %d vehicles | training %d episodes x "
              "%d seeds per DRL method\n\n",
              instance.num_orders(), instance.num_vehicles(), episodes,
              seeds);

  TextTable table({"method", "NUV", "TC", "TC std", "infer s"});
  auto add = [&](const dpdp::MethodSummary& s) {
    table.AddRow({s.method, TextTable::Num(s.nuv_mean(), 1),
                  TextTable::Num(s.tc_mean()), TextTable::Num(s.tc_std()),
                  TextTable::Num(s.wall_mean(), 3)});
  };

  dpdp::MinIncrementalLengthDispatcher b1;
  dpdp::MinTotalLengthDispatcher b2;
  dpdp::MaxAcceptedOrdersDispatcher b3;
  add(dpdp::RunBaseline(instance, &b1));
  add(dpdp::RunBaseline(instance, &b2));
  add(dpdp::RunBaseline(instance, &b3));

  std::vector<std::string> methods = dpdp::ComparisonDrlMethods();
  methods.push_back("Graph-AC");  // Library extension: relational AC.
  for (const std::string& method : methods) {
    add(dpdp::RunDrlMethod(instance, predicted, method, episodes, seeds,
                           /*seed_base=*/11));
    std::printf("trained %s\n", method.c_str());
  }

  std::printf("\n%s\n", table.ToString().c_str());
  return 0;
}
