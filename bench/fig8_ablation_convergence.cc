// Reproduces Table II + Fig. 8: the ablation over the two ST-DDGN
// components — ST Score and graph convolution — via training convergence
// curves of DDQN / ST-DDQN / DDGN / ST-DDGN on a large-scale instance.
// Shape to reproduce:
//   * all four learn to use fewer vehicles than the heuristic baseline;
//   * graph models (DDGN, ST-DDGN) converge to lower TC than the flat
//     models (~5% in the paper);
//   * ST-aided variants start converging earlier than their non-ST
//     counterparts.
//
// Env knobs: DPDP_EPISODES, DPDP_FAST.

#include <cstdio>
#include <map>

#include "core/dpdp.h"

namespace {

/// First episode whose TC stays within 5% of the final tail mean.
int ConvergenceEpisode(const std::vector<double>& tc) {
  if (tc.empty()) return -1;
  const double target = dpdp::TrainingCurve::TailMean(tc, 10);
  for (size_t e = 0; e < tc.size(); ++e) {
    bool stable = true;
    for (size_t k = e; k < tc.size(); ++k) {
      if (tc[k] > 1.05 * target) {
        stable = false;
        break;
      }
    }
    if (stable) return static_cast<int>(e);
  }
  return static_cast<int>(tc.size()) - 1;
}

}  // namespace

int main() {
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 12 : 150,
                         1, 1000000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/7, /*mean_orders_per_day=*/150.0));
  const dpdp::Instance inst =
      dataset.SampleInstance("ablation", 150, 50, 0, 9, 42);
  dpdp::AverageStdPredictor predictor;
  const dpdp::nn::Matrix predicted =
      predictor.Predict(dataset.History(10, 4)).value();

  std::printf("=== Table II / Fig. 8: ablation convergence (%d episodes) "
              "===\n",
              episodes);
  std::printf("model components: DDQN(none) ST-DDQN(ST) DDGN(graph) "
              "ST-DDGN(ST+graph)\n\n");

  // Heuristic reference line.
  dpdp::MinIncrementalLengthDispatcher b1;
  const dpdp::MethodSummary base = dpdp::RunBaseline(inst, &b1, predicted);
  std::printf("baseline1 reference: NUV %.0f, TC %.1f\n\n",
              base.nuv_mean(), base.tc_mean());

  std::map<std::string, dpdp::TrainingCurve> curves;
  for (const std::string& model : dpdp::AblationModels()) {
    const dpdp::DrlOutcome out =
        dpdp::TrainEvalOnInstance(inst, predicted, model, /*seed=*/3,
                                  episodes);
    curves[model] = out.curve;
    std::printf("trained %s: final eval NUV %.0f TC %.1f (%.0fs)\n",
                model.c_str(), out.eval.nuv, out.eval.total_cost,
                out.train_seconds);
  }

  // Convergence curves, printed every ~episodes/15 episodes.
  const int stride = std::max(1, episodes / 15);
  dpdp::TextTable nuv_table({"episode", "DDQN", "ST-DDQN", "DDGN",
                             "ST-DDGN"});
  dpdp::TextTable tc_table({"episode", "DDQN", "ST-DDQN", "DDGN",
                            "ST-DDGN"});
  for (int e = 0; e < episodes; e += stride) {
    std::vector<std::string> nuv_row{std::to_string(e)};
    std::vector<std::string> tc_row{std::to_string(e)};
    for (const std::string& model : dpdp::AblationModels()) {
      nuv_row.push_back(dpdp::TextTable::Num(curves[model].nuv[e], 0));
      tc_row.push_back(dpdp::TextTable::Num(curves[model].total_cost[e], 0));
    }
    nuv_table.AddRow(nuv_row);
    tc_table.AddRow(tc_row);
  }
  std::printf("\n(a) NUV vs episode\n%s\n(b) TC vs episode\n%s\n",
              nuv_table.ToString().c_str(), tc_table.ToString().c_str());

  dpdp::TextTable summary({"model", "ST Score", "Graph", "converged @",
                           "tail TC", "tail NUV"});
  const std::map<std::string, std::pair<const char*, const char*>> flags{
      {"DDQN", {"x", "x"}},
      {"ST-DDQN", {"yes", "x"}},
      {"DDGN", {"x", "yes"}},
      {"ST-DDGN", {"yes", "yes"}}};
  for (const std::string& model : dpdp::AblationModels()) {
    summary.AddRow(
        {model, flags.at(model).first, flags.at(model).second,
         std::to_string(ConvergenceEpisode(curves[model].total_cost)),
         dpdp::TextTable::Num(
             dpdp::TrainingCurve::TailMean(curves[model].total_cost, 10)),
         dpdp::TextTable::Num(
             dpdp::TrainingCurve::TailMean(curves[model].nuv, 10), 1)});
  }
  std::printf("summary (Table II grid + convergence)\n%s\n",
              summary.ToString().c_str());
  return 0;
}
