// Reproduces Fig. 2: the spatial-temporal distribution (STD) of delivery
// demand on four different days of the same month, rendered as 27 x 144
// heatmaps, plus the two structural observations the paper makes:
//   1. patterns of nearby days are more similar than distant days;
//   2. demand concentrates spatially (few hot factories) and temporally
//      (10:00-12:00 and 14:00-17:00 peaks).

#include <cstdio>

#include "core/dpdp.h"
#include "exp/heatmap.h"

int main() {
  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/620.0));

  // Four days of the same synthetic "month" (paper: closer days are more
  // similar).
  const int days[4] = {10, 11, 14, 24};
  std::vector<dpdp::nn::Matrix> stds;
  std::printf("=== Fig. 2: spatial-temporal demand distribution ===\n\n");
  for (int d : days) {
    stds.push_back(dataset.StdMatrixOfDay(d));
    std::printf("--- Day %d (27 factories x 144 intervals) ---\n", d);
    std::printf("%s", dpdp::SummarizeStdMatrix(stds.back()).c_str());
    std::printf("%s\n", dpdp::RenderHeatmap(stds.back()).c_str());
  }

  // Pairwise pattern similarity on hourly-pooled matrices (pooling
  // removes the per-cell Poisson sampling noise so the day-level pattern
  // is visible, as in the paper's visual comparison).
  auto pool_hourly = [](const dpdp::nn::Matrix& m) {
    dpdp::nn::Matrix out(m.rows(), 24);
    for (int r = 0; r < m.rows(); ++r) {
      for (int c = 0; c < m.cols(); ++c) out(r, c * 24 / m.cols()) += m(r, c);
    }
    return out;
  };
  std::vector<dpdp::nn::Matrix> pooled;
  for (const auto& m : stds) pooled.push_back(pool_hourly(m));

  std::printf("--- Pairwise pattern distance (hourly-pooled, normalized "
              "Frobenius; smaller = more similar) ---\n");
  dpdp::TextTable table({"day", "d10", "d11", "d14", "d24"});
  for (int i = 0; i < 4; ++i) {
    std::vector<std::string> row(1, "d");
    row[0] += std::to_string(days[i]);
    for (int j = 0; j < 4; ++j) {
      const double denom =
          0.5 * (pooled[i].FrobeniusNorm() + pooled[j].FrobeniusNorm());
      row.push_back(dpdp::TextTable::Num(
          pooled[i].FrobeniusDistance(pooled[j]) / denom, 3));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  const double near = pooled[0].FrobeniusDistance(pooled[1]);
  const double far = pooled[0].FrobeniusDistance(pooled[3]);
  std::printf("nearby-day distance (d10 vs d11): %.1f\n", near);
  std::printf("distant-day distance (d10 vs d24): %.1f\n", far);
  std::printf("paper shape 'closer days more similar' holds: %s\n",
              near < far ? "YES" : "NO");
  return 0;
}
