// Extension of the paper's Eq. (3) remark that "advanced spatial-temporal
// prediction methods could be directly applied": compares ST-DDGN trained
// with three demand predictors —
//   * the paper's production choice (historical average, Eq. 3);
//   * an exponentially weighted moving average (recency-weighted);
//   * an oracle that sees the evaluation day's true STD matrix (upper
//     bound on what better prediction can buy).
// Also reports each predictor's error against the true day.
//
// Env knobs: DPDP_EPISODES, DPDP_FAST.

#include <cstdio>

#include "core/dpdp.h"

int main() {
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 10 : 120,
                         1, 1000000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/150.0));
  const dpdp::Instance inst =
      dataset.SampleInstance("pred", 150, 50, 0, 9, 42);
  const dpdp::nn::Matrix truth = dpdp::BuildStdMatrix(
      *inst.network, inst.orders, inst.num_time_intervals,
      inst.horizon_minutes);
  const std::vector<dpdp::nn::Matrix> history = dataset.History(10, 4);

  dpdp::AverageStdPredictor average;
  dpdp::EwmaStdPredictor ewma(0.5);
  const dpdp::nn::Matrix pred_avg = average.Predict(history).value();
  const dpdp::nn::Matrix pred_ewma = ewma.Predict(history).value();

  std::printf("=== Extension: demand predictor comparison for ST-DDGN "
              "(%d episodes) ===\n\n",
              episodes);

  dpdp::TextTable table({"predictor", "Frobenius err vs truth", "NUV",
                         "TC"});
  const std::pair<const char*, const dpdp::nn::Matrix*> predictors[] = {
      {"historical average (paper)", &pred_avg},
      {"EWMA(0.5)", &pred_ewma},
      {"oracle (true day STD)", &truth},
  };
  for (const auto& [name, matrix] : predictors) {
    const dpdp::DrlOutcome out = dpdp::TrainEvalOnInstance(
        inst, *matrix, "ST-DDGN", /*seed=*/7, episodes);
    table.AddRow({name,
                  dpdp::TextTable::Num(truth.FrobeniusDistance(*matrix), 1),
                  dpdp::TextTable::Num(out.eval.nuv, 0),
                  dpdp::TextTable::Num(out.eval.total_cost)});
    std::printf("trained with %s\n", name);
  }
  std::printf("\n%s\n", table.ToString().c_str());
  return 0;
}
