// Reproduces the Sec. IV-D discussion: immediate service vs fixed
// time-interval buffering. The paper reports that buffering did not
// obviously reduce logistics cost but inflated response time well past the
// 60 s business requirement (154.47 s avg per order in their early
// solution). Here response time is measured in simulated minutes between
// order creation and dispatch decision; larger buffers also start losing
// tight-deadline orders.
//
// Env knobs: DPDP_ORDERS, DPDP_VEHICLES, DPDP_FAST.

#include <cstdio>

#include "core/dpdp.h"

int main() {
  const int num_orders = dpdp::EnvIntStrict("DPDP_ORDERS", 150, 1, 100000);
  const int num_vehicles = dpdp::EnvIntStrict("DPDP_VEHICLES", 50, 1, 100000);

  dpdp::DpdpDataset dataset(dpdp::StandardDatasetConfig(
      /*seed=*/7, static_cast<double>(num_orders)));
  const dpdp::Instance inst = dataset.SampleInstance(
      "buffering", num_orders, num_vehicles, 0, 9, 42);

  std::printf("=== Sec. IV-D: immediate service vs fixed-interval "
              "buffering ===\n");
  std::printf("(%d orders, %d vehicles, baseline-1 dispatch rule)\n\n",
              inst.num_orders(), inst.num_vehicles());

  dpdp::TextTable table({"buffer window (min)", "NUV", "TC",
                         "mean response (min)", "unserved"});
  for (const double window : {0.0, 5.0, 10.0, 20.0, 30.0, 60.0}) {
    dpdp::SimulatorConfig config;
    config.buffer_window_min = window;
    config.record_visits = false;
    dpdp::Environment env(&inst, config);
    dpdp::MinIncrementalLengthDispatcher b1;
    const dpdp::EpisodeResult r = dpdp::RunEpisode(&env, &b1);
    table.AddRow({window == 0.0 ? "0 (immediate)"
                                : dpdp::TextTable::Num(window, 0),
                  dpdp::TextTable::Num(r.nuv, 0),
                  dpdp::TextTable::Num(r.total_cost),
                  dpdp::TextTable::Num(r.mean_response_min, 1),
                  dpdp::TextTable::Num(r.num_unserved, 0)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("shape to observe: no clear TC win from buffering, while\n"
              "response time grows ~W/2 and tight orders start dropping —\n"
              "matching the paper's rationale for immediate service.\n");
  return 0;
}
