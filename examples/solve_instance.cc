// Command-line dispatcher: loads a DPDP instance from a CSV file (see
// model/instance_io.h for the format), dispatches it with the requested
// policy, and prints the episode metrics — the entry point for running
// this library on external workloads.
//
// Usage:
//   solve_instance <instance.csv> [method] [train_episodes]
//     method: baseline1 | baseline2 | baseline3 | DQN | AC | DDQN |
//             ST-DDQN | DGN | DDGN | ST-DDGN      (default: baseline1)
//
// With no arguments, a demo instance is generated, exported next to the
// binary, and solved — so the example is runnable out of the box.

#include <cstdio>
#include <memory>
#include <string>

#include "core/dpdp.h"

namespace {

int Run(const dpdp::Instance& instance, const std::string& method,
        int episodes) {
  std::printf("instance '%s': %d orders, %d vehicles, %d nodes\n",
              instance.name.c_str(), instance.num_orders(),
              instance.num_vehicles(), instance.network->num_nodes());

  dpdp::EpisodeResult result;
  if (method == "baseline1" || method == "baseline2" ||
      method == "baseline3") {
    dpdp::MinIncrementalLengthDispatcher b1;
    dpdp::MinTotalLengthDispatcher b2;
    dpdp::MaxAcceptedOrdersDispatcher b3;
    dpdp::Dispatcher* d = method == "baseline1"
                              ? static_cast<dpdp::Dispatcher*>(&b1)
                              : method == "baseline2"
                                    ? static_cast<dpdp::Dispatcher*>(&b2)
                                    : static_cast<dpdp::Dispatcher*>(&b3);
    dpdp::Environment env(&instance);
    result = dpdp::RunEpisode(&env, d);
  } else {
    // Learned policy: build an STD prediction from the instance's own
    // stream (self-prediction; plug a real history when you have one),
    // train, then evaluate greedily.
    const dpdp::nn::Matrix predicted = dpdp::BuildStdMatrix(
        *instance.network, instance.orders, instance.num_time_intervals,
        instance.horizon_minutes);
    std::printf("training %s for %d episodes...\n", method.c_str(),
                episodes);
    const dpdp::DrlOutcome out =
        dpdp::TrainEvalOnInstance(instance, predicted, method, /*seed=*/1,
                                  episodes);
    std::printf("(%.1fs training)\n", out.train_seconds);
    result = out.eval;
  }

  std::printf("\nmethod            : %s\n", method.c_str());
  std::printf("orders served     : %d / %d\n", result.num_served,
              result.num_orders);
  std::printf("vehicles used     : %.0f\n", result.nuv);
  std::printf("total travel (km) : %.1f\n", result.total_travel_length);
  std::printf("total cost        : %.1f\n", result.total_cost);
  return result.all_served() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string method = argc > 2 ? argv[2] : "baseline1";
  const int episodes =
      argc > 3 ? static_cast<int>(dpdp::ParseIntStrict(
                     "train_episodes", argv[3], 1, 1000000))
               : dpdp::EnvIntStrict("DPDP_EPISODES", 60, 1, 1000000);

  if (argc > 1) {
    const dpdp::Result<dpdp::Instance> loaded =
        dpdp::LoadInstanceCsvFile(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 2;
    }
    return Run(loaded.value(), method, episodes);
  }

  // Demo mode: generate, export, reload, solve.
  std::printf("no instance given — generating a demo workload\n");
  dpdp::DpdpDataset dataset(dpdp::StandardDatasetConfig(7, 80.0));
  const dpdp::Instance demo = dataset.SampleInstance("demo", 60, 15, 0, 4, 3);
  const std::string path = "demo_instance.csv";
  DPDP_CHECK_OK(dpdp::SaveInstanceCsvFile(demo, path));
  std::printf("exported %s (re-run with: solve_instance %s ST-DDGN 60)\n\n",
              path.c_str(), path.c_str());
  return Run(demo, method, episodes);
}
