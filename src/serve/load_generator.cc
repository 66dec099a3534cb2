#include "serve/load_generator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "rl/dqn_agent.h"
#include "serve/service_dispatcher.h"
#include "sim/environment.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dpdp::serve {
namespace {

double SecondsSince(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs every client's episodes concurrently (one pool thread each) and
/// fills the aggregate report. `run_client(i, outcome)` runs client i's
/// episodes inside the worker and records them into `outcome`.
template <typename RunClient>
LoadReport RunClients(const std::vector<const Instance*>& instances,
                      RunClient run_client) {
  const int n = static_cast<int>(instances.size());
  DPDP_CHECK(n > 0);
  LoadReport report;
  report.clients.resize(n);

  // A private pool with one thread per client: campus concurrency is part
  // of the workload's definition, not a tuning knob, so it must not be
  // capped by DPDP_THREADS (= 1 on single-core hosts).
  ThreadPool pool(n);
  WallTimer timer;
  std::vector<std::future<void>> done;
  done.reserve(n);
  for (int i = 0; i < n; ++i) {
    done.push_back(pool.Submit([&, i] {
      run_client(i, &report.clients[i]);
    }));
  }
  for (std::future<void>& f : done) f.get();
  report.wall_seconds = timer.ElapsedSeconds();

  std::vector<double> all_latencies;
  for (const ClientOutcome& client : report.clients) {
    for (const EpisodeResult& episode : client.episodes) {
      report.total_decisions += episode.num_decisions;
    }
    all_latencies.insert(all_latencies.end(), client.latencies_s.begin(),
                         client.latencies_s.end());
  }
  report.decisions_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.total_decisions) / report.wall_seconds
          : 0.0;
  // Percentiles via the shared histogram-quantile estimator over the
  // standard latency buckets — the same math the telemetry plane applies
  // to the serve.* histograms, so a load report's p99 and a /metrics
  // scrape's p99 come from one definition.
  obs::Histogram histogram("load.latency_s", obs::LatencyBucketsSeconds());
  for (const double seconds : all_latencies) histogram.Record(seconds);
  obs::MetricSnapshot snapshot;
  snapshot.name = histogram.name();
  snapshot.kind = obs::MetricSnapshot::Kind::kHistogram;
  snapshot.count = histogram.Count();
  snapshot.sum = histogram.Sum();
  snapshot.bounds = histogram.bounds();
  snapshot.buckets = histogram.BucketCounts();
  report.p50_us = obs::HistogramQuantile(snapshot, 0.50) * 1e6;
  report.p95_us = obs::HistogramQuantile(snapshot, 0.95) * 1e6;
  report.p99_us = obs::HistogramQuantile(snapshot, 0.99) * 1e6;
  return report;
}

}  // namespace

double PercentileNearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::min(1.0, std::max(0.0, q));
  const int rank = static_cast<int>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::max(0, rank - 1)];
}

LoadReport RunServedLoad(const std::vector<const Instance*>& instances,
                         DecisionService* service,
                         const LoadOptions& options) {
  DPDP_CHECK(service != nullptr);
  return RunClients(instances, [&](int i, ClientOutcome* out) {
    Environment env(instances[i], options.sim);
    ServiceDispatcher dispatcher(service);
    for (int e = 0; e < options.episodes_per_client; ++e) {
      out->episodes.push_back(RunEpisode(&env, &dispatcher));
    }
    out->latencies_s = dispatcher.latencies_s();
    out->sheds = dispatcher.sheds();
    out->degraded = dispatcher.degraded();
    out->deadline_exceeded = dispatcher.deadline_exceeded();
  });
}

LoadReport RunLocalAgentsLoad(const std::vector<const Instance*>& instances,
                              const AgentConfig& agent_config,
                              const LoadOptions& options) {
  // The step loop is driven here rather than by RunEpisode so that each
  // latency sample is the evaluation-mode agent's Act alone.
  return RunClients(instances, [&](int i, ClientOutcome* out) {
    DqnFleetAgent agent(agent_config, "local-campus-" + std::to_string(i));
    Environment env(instances[i], options.sim);
    for (int e = 0; e < options.episodes_per_client; ++e) {
      env.Reset();
      while (env.AdvanceToDecision()) {
        const auto start = std::chrono::steady_clock::now();
        const int vehicle = agent.Act(env.ObserveDecision());
        out->latencies_s.push_back(SecondsSince(start));
        env.Apply(vehicle, out->latencies_s.back());
      }
      out->episodes.push_back(env.result());
    }
  });
}

}  // namespace dpdp::serve
