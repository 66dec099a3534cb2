#ifndef DPDP_SERVE_LOAD_GENERATOR_H_
#define DPDP_SERVE_LOAD_GENERATOR_H_

#include <vector>

#include "model/instance.h"
#include "rl/config.h"
#include "serve/dispatch_service.h"
#include "sim/environment.h"

namespace dpdp::serve {

/// Closed-loop load options: each client is one Environment replaying its
/// instance and blocking on every decision (the next order is only
/// dispatched after the previous reply arrives — campus semantics).
struct LoadOptions {
  int episodes_per_client = 1;
  SimulatorConfig sim;
};

/// One client's outcome: its episode results plus per-decision round-trip
/// latencies in decision order.
struct ClientOutcome {
  std::vector<EpisodeResult> episodes;
  std::vector<double> latencies_s;
  long sheds = 0;
  long degraded = 0;
  long deadline_exceeded = 0;
};

/// Aggregate of one load run.
struct LoadReport {
  std::vector<ClientOutcome> clients;  ///< Index = instance index.
  double wall_seconds = 0.0;
  long total_decisions = 0;
  double decisions_per_second = 0.0;
  /// Round-trip decision latency percentiles over all clients, estimated
  /// with obs::HistogramQuantile over the standard latency buckets — the
  /// same estimator the telemetry plane applies to the serve.* histograms,
  /// so load-report and /metrics percentiles share one definition (exact
  /// up to bucket resolution; see PercentileNearestRank for raw-sample
  /// percentiles).
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Runs one closed-loop client per instance against `service` (a single
/// DispatchService or a ShardRouter fabric), all concurrently on a private
/// thread pool with one thread per client (so N campuses genuinely
/// interleave even when DPDP_THREADS = 1), and reports merged
/// throughput/latency. Passing the same Instance* several times models
/// several concurrent clients of one campus. Client i's episode results
/// depend only on (instances[i], options) — never on which other clients
/// shared the run, nor on how many shards served it — because batched
/// evaluation is bit-identical to per-item evaluation.
LoadReport RunServedLoad(const std::vector<const Instance*>& instances,
                         DecisionService* service,
                         const LoadOptions& options);

/// The unbatched baseline: the same closed-loop clients, each owning a
/// private evaluation-mode DqnFleetAgent built from `agent_config`
/// (identical deterministic weight init per client) instead of sharing the
/// service. Same thread layout, so the only difference being measured is
/// batched-vs-independent Q evaluation.
LoadReport RunLocalAgentsLoad(const std::vector<const Instance*>& instances,
                              const AgentConfig& agent_config,
                              const LoadOptions& options);

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
/// Copies and sorts internally.
double PercentileNearestRank(std::vector<double> samples, double q);

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_LOAD_GENERATOR_H_
