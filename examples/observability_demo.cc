// Observability walkthrough: train a DQN dispatcher for a couple of
// episodes with the metrics registry, per-episode metrics.csv time series
// and the Chrome-trace span tracer all active, then cross-check that the
// recorded telemetry reconciles exactly with the environment's own
// episode accounting.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   export DPDP_METRICS_DIR=/tmp/dpdp_obs DPDP_TRACE=1
//   ./build/examples/observability_demo
//
// Afterwards /tmp/dpdp_obs contains:
//   metrics.csv            one row per training episode (loss, epsilon,
//                          mean/max Q, replay size, degradations, ...)
//   metrics_snapshot.csv   point-in-time dump of every counter/gauge/
//   metrics_snapshot.json  histogram in the global registry
//   trace.json             load in https://ui.perfetto.dev or
//                          chrome://tracing (written at process exit)

#include <cstdio>

#include "core/dpdp.h"

int main() {
  // Snapshot the registry counters up front so the reconciliation below
  // measures exactly this run (the counters are process-global).
  dpdp::obs::MetricsRegistry& registry = dpdp::obs::MetricsRegistry::Global();
  dpdp::obs::Counter* decisions = registry.GetCounter("sim.decisions");
  dpdp::obs::Counter* degraded = registry.GetCounter("sim.degraded_decisions");
  dpdp::obs::Histogram* latency = registry.GetHistogram(
      "sim.decision_latency_s", dpdp::obs::LatencyBucketsSeconds());
  const uint64_t decisions_before = decisions->Value();
  const uint64_t degraded_before = degraded->Value();
  const uint64_t latency_before = latency->Count();

  // A small world so the demo doubles as a CI smoke test.
  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/3, /*mean_orders_per_day=*/60.0));
  const dpdp::Instance instance = dataset.SampleInstance(
      "obs-demo", /*num_orders=*/12, /*num_vehicles=*/5,
      /*day_lo=*/0, /*day_hi=*/2, /*seed=*/4);
  dpdp::AverageStdPredictor predictor;
  const dpdp::Result<dpdp::nn::Matrix> predicted =
      predictor.Predict(dataset.History(/*day=*/3, /*k=*/2));
  DPDP_CHECK(predicted.ok());

  dpdp::SimulatorConfig sim_config;
  sim_config.predicted_std = predicted.value();
  dpdp::Environment env(&instance, sim_config);
  std::unique_ptr<dpdp::Agent> agent =
      dpdp::MakeAgentByName("DQN", /*seed=*/1);
  agent->set_training(true);

  // RunEpisodes writes $DPDP_METRICS_DIR/metrics.csv automatically; the
  // span tracer was armed by DPDP_TRACE=1 at startup and flushes
  // trace.json at process exit.
  dpdp::TrainOptions options;
  options.episodes = dpdp::EnvIntStrict("DPDP_EPISODES", 2, 1, 1000000);
  const dpdp::TrainingCurve curve =
      dpdp::RunEpisodes(&env, agent.get(), options);

  long total_decisions = 0;
  long total_degraded = 0;
  for (const dpdp::EpisodeResult& r : curve.episodes) {
    total_decisions += r.num_decisions;
    total_degraded += r.num_degraded_decisions;
  }
  std::printf("trained %zu episodes: %ld decisions, %ld degraded\n",
              curve.episodes.size(), total_decisions, total_degraded);

  // Acceptance cross-check: the registry's decision-latency histogram and
  // degradation counter must reconcile exactly with EpisodeResult totals.
  DPDP_CHECK(decisions->Value() - decisions_before ==
             static_cast<uint64_t>(total_decisions));
  DPDP_CHECK(latency->Count() - latency_before ==
             static_cast<uint64_t>(total_decisions));
  DPDP_CHECK(degraded->Value() - degraded_before ==
             static_cast<uint64_t>(total_degraded));

  // Dump the registry (no-op unless DPDP_METRICS_DIR is set).
  DPDP_CHECK_OK(dpdp::obs::WriteMetricsFiles());

  const std::string dir = dpdp::EnvStr("DPDP_METRICS_DIR", "");
  if (dir.empty()) {
    std::printf("set DPDP_METRICS_DIR to export metrics files\n");
  } else {
    std::printf("metrics written under %s\n", dir.c_str());
  }
  if (dpdp::obs::TraceEnabled()) {
    std::printf("trace.json will be flushed at exit (%zu spans so far)\n",
                dpdp::obs::BufferedSpanCount());
  } else {
    std::printf("set DPDP_TRACE=1 to record a Perfetto trace\n");
  }
  std::printf("telemetry reconciled: OK\n");
  return 0;
}
