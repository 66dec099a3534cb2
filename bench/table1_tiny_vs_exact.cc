// Reproduces Table I: DRL methods (DQN, AC, DGN, ST-DDGN) vs the exact
// optimum on tiny instances — 5 vehicles serving 6 / 7 / 8 / 10 concurrent
// orders. The paper's Gurobi MIP is replaced by the branch-and-bound exact
// solver (see DESIGN.md); the shape to reproduce:
//   * graph methods match or beat the flat DRL methods and approach the
//     optimum on the smallest instance;
//   * learned inference is sub-second while exact wall time explodes with
//     instance size (entries "-" when the limit is hit, like the paper's
//     8/10-order MIP cells).
//
// Env knobs: DPDP_EPISODES (train episodes), DPDP_EXACT_SECONDS,
// DPDP_FAST.

#include <cstdio>
#include <string>
#include <vector>

#include "core/dpdp.h"

int main() {
  const int episodes =
      dpdp::EnvIntStrict("DPDP_EPISODES", dpdp::FastMode() ? 10 : 120,
                         1, 1000000);
  const double exact_limit =
      dpdp::EnvDoubleStrict("DPDP_EXACT_SECONDS", dpdp::FastMode() ? 2.0 : 30.0,
                            0.0, 86400.0);

  // Tiny instances sample concurrent orders from the 9:00-12:00 peak so a
  // single vehicle cannot trivially chain everything (the paper's sampled
  // instances show 3-5 used vehicles for 6-10 orders).
  dpdp::DpdpDataset dataset(dpdp::StandardDatasetConfig(
      /*seed=*/7, /*mean_orders_per_day=*/620.0,
      /*min_window_slack_min=*/40.0, /*max_window_slack_min=*/100.0));

  const int sizes[] = {6, 7, 8, 10};
  dpdp::TextTable table(
      {"orders", "method", "NUV", "TC", "wall time (s)", "optimal?"});

  std::printf("=== Table I: DRL vs exact optimum on tiny instances ===\n");
  std::printf("(5 vehicles; %d training episodes per DRL method; exact "
              "time limit %.0fs)\n\n",
              episodes, exact_limit);

  for (const int n : sizes) {
    const dpdp::Instance inst = dpdp::SampleInstanceInWindow(
        &dataset, "tiny" + std::to_string(n), n, /*num_vehicles=*/5,
        /*day_lo=*/0, /*day_hi=*/3, /*t_lo_min=*/540.0, /*t_hi_min=*/720.0,
        /*seed=*/100 + n);
    dpdp::AverageStdPredictor predictor;
    const dpdp::nn::Matrix predicted =
        predictor.Predict(dataset.History(4, 4)).value();

    // Each DRL method trains its own agent on its own simulator, so the
    // four sweeps run concurrently; rows are added in method order.
    const std::vector<std::string> methods = dpdp::ComparisonDrlMethods();
    std::vector<dpdp::DrlOutcome> outcomes(methods.size());
    dpdp::GlobalThreadPool()->ParallelFor(
        static_cast<int>(methods.size()), [&](int m) {
          outcomes[m] = dpdp::TrainEvalOnInstance(inst, predicted, methods[m],
                                                  /*seed=*/11, episodes);
        });
    for (size_t m = 0; m < methods.size(); ++m) {
      const dpdp::DrlOutcome& out = outcomes[m];
      table.AddRow({std::to_string(n), methods[m],
                    dpdp::TextTable::Num(out.eval.nuv, 0),
                    dpdp::TextTable::Num(out.eval.total_cost),
                    dpdp::TextTable::Num(out.eval_decision_seconds, 3),
                    "-"});
    }

    dpdp::ExactSolverConfig config;
    config.time_limit_seconds = exact_limit;
    dpdp::BranchAndBoundSolver solver(&inst, config);
    const dpdp::ExactSolution sol = solver.Solve();
    if (sol.found && sol.optimal) {
      table.AddRow({std::to_string(n), "EXACT (B&B)",
                    dpdp::TextTable::Num(sol.nuv, 0),
                    dpdp::TextTable::Num(sol.total_cost),
                    dpdp::TextTable::Num(sol.wall_seconds, 2), "yes"});
    } else {
      // The paper reports "-" where the MIP is intractable.
      table.AddRow({std::to_string(n), "EXACT (B&B)", "-", "-",
                    "> " + dpdp::TextTable::Num(exact_limit, 0), "no"});
    }
    std::printf("size %d done\n", n);
  }

  std::printf("\n%s\n", table.ToString().c_str());
  return 0;
}
