// Quickstart: generate a synthetic campus + one day of orders, dispatch
// with a heuristic baseline and with a briefly trained ST-DDGN policy, and
// compare the number of used vehicles (NUV) and total cost (TC).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/dpdp.h"

int main() {
  using dpdp::TextTable;

  // 1. A "world": the 27-factory campus and a pool of synthetic days that
  //    stands in for the paper's historical order data.
  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/150.0));

  // 2. A large-scale instance (Fig. 6 scale): 50 vehicles, 150 orders
  //    sampled from the pool's first ten days.
  const dpdp::Instance instance = dataset.SampleInstance(
      "quickstart", /*num_orders=*/150, /*num_vehicles=*/50,
      /*day_lo=*/0, /*day_hi=*/9, /*seed=*/42);
  std::printf("Instance: %d orders, %d vehicles, %d factories\n",
              instance.num_orders(), instance.num_vehicles(),
              instance.network->num_factories());

  // 3. Predict the day's spatial-temporal demand from the previous four
  //    days (Definition 1 + Eq. 3).
  dpdp::AverageStdPredictor predictor;
  const dpdp::Result<dpdp::nn::Matrix> predicted =
      predictor.Predict(dataset.History(/*day=*/10, /*k=*/4));
  DPDP_CHECK(predicted.ok());

  TextTable table({"method", "NUV", "TC", "TTL (km)", "served"});
  auto add_row = [&](const char* method, const dpdp::EpisodeResult& r) {
    table.AddRow({method, TextTable::Num(r.nuv, 0),
                  TextTable::Num(r.total_cost),
                  TextTable::Num(r.total_travel_length),
                  TextTable::Num(r.num_served, 0)});
  };

  // 4. Dispatch with the UAT heuristic (Baseline 1).
  {
    dpdp::Environment env(&instance);
    dpdp::MinIncrementalLengthDispatcher baseline;
    add_row("baseline1 (UAT heuristic)", dpdp::RunEpisode(&env, &baseline));
  }

  // 5. Train ST-DDGN briefly and evaluate the greedy policy.
  const int episodes = dpdp::EnvIntStrict(
      "DPDP_EPISODES", dpdp::FastMode() ? 5 : 40, 1, 1000000);
  const dpdp::DrlOutcome outcome = dpdp::TrainEvalOnInstance(
      instance, predicted.value(), "ST-DDGN", /*seed=*/1, episodes);
  add_row("ST-DDGN (trained)", outcome.eval);
  std::printf("Trained ST-DDGN for %d episodes in %.1fs\n", episodes,
              outcome.train_seconds);

  std::printf("\n%s\n", table.ToString().c_str());
  return 0;
}
