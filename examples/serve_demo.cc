// Serving-layer demo and benchmark: N concurrent simulated campuses share
// one micro-batching DispatchService, with the model loaded from a real
// checkpoint file and hot-swapped mid-run — then the same N campuses run
// again as independent unbatched agents, and the two runs are checked
// bitwise-identical per campus before throughput is compared.
//
// What it proves, end to end:
//   * batching changes wall-clock cost, never decisions (every campus's
//     episode result — costs, lengths, assignments — matches its local run
//     exactly, whatever batch interleavings occurred);
//   * a checkpoint published during the run swaps in without shedding,
//     dropping or stalling a single request;
//   * the shared batched service out-serves independent agents.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/serve_demo
//
// Knobs (all optional):
//   DPDP_SERVE_CLIENTS     concurrent campuses        (default 8)
//   DPDP_SERVE_EPISODES    episodes per campus        (default 1)
//   DPDP_SERVE_ORDERS      orders per campus          (default 24)
//   DPDP_SERVE_VEHICLES    vehicles per campus        (default 8)
//   DPDP_SERVE_HIDDEN      policy hidden width        (default 512)
//   DPDP_SERVE_MAX_BATCH   flush at this many pending (default: clients)
//   DPDP_SERVE_MAX_WAIT_US ... or after this wait, us (default 300)
//   DPDP_SERVE_QUEUE_CAP   admission bound            (default 256)
//   DPDP_BENCH_JSON        result file                (default BENCH_5.json)

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dpdp.h"

namespace {

namespace fs = std::filesystem;

/// Aborts unless every deterministic field of the two episode results is
/// identical (wall-clock fields excluded: they measure the machine, not
/// the policy).
void CheckSameEpisode(const dpdp::EpisodeResult& local,
                      const dpdp::EpisodeResult& served, int client) {
  DPDP_CHECK(local.num_served == served.num_served);
  DPDP_CHECK(local.num_unserved == served.num_unserved);
  DPDP_CHECK(local.num_decisions == served.num_decisions);
  DPDP_CHECK(local.num_degraded_decisions == served.num_degraded_decisions);
  DPDP_CHECK(local.nuv == served.nuv);
  DPDP_CHECK(local.total_travel_length == served.total_travel_length);
  DPDP_CHECK(local.total_cost == served.total_cost);
  DPDP_CHECK(local.sum_incremental_length == served.sum_incremental_length);
  DPDP_CHECK(local.order_assignment == served.order_assignment);
  (void)client;
}

/// Combines two phases of the same workload into one report (latencies
/// pooled, wall times summed, percentiles recomputed).
dpdp::serve::LoadReport MergeReports(const dpdp::serve::LoadReport& a,
                                     const dpdp::serve::LoadReport& b) {
  dpdp::serve::LoadReport out = a;
  out.wall_seconds += b.wall_seconds;
  out.total_decisions += b.total_decisions;
  out.decisions_per_second =
      out.wall_seconds > 0.0
          ? static_cast<double>(out.total_decisions) / out.wall_seconds
          : 0.0;
  std::vector<double> latencies;
  for (const dpdp::serve::LoadReport* r : {&a, &b}) {
    for (const dpdp::serve::ClientOutcome& c : r->clients) {
      latencies.insert(latencies.end(), c.latencies_s.begin(),
                       c.latencies_s.end());
    }
  }
  out.p50_us = dpdp::serve::PercentileNearestRank(latencies, 0.50) * 1e6;
  out.p95_us = dpdp::serve::PercentileNearestRank(latencies, 0.95) * 1e6;
  out.p99_us = dpdp::serve::PercentileNearestRank(latencies, 0.99) * 1e6;
  return out;
}

struct BenchRow {
  std::string name;
  double ns_per_op = 0.0;          ///< Wall nanoseconds per decision.
  double decisions_per_second = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  long shed = 0;
};

BenchRow MakeRow(const std::string& name,
                 const dpdp::serve::LoadReport& report, long shed) {
  BenchRow row;
  row.name = name;
  row.ns_per_op = report.total_decisions > 0
                      ? report.wall_seconds * 1e9 /
                            static_cast<double>(report.total_decisions)
                      : 0.0;
  row.decisions_per_second = report.decisions_per_second;
  row.p50_us = report.p50_us;
  row.p95_us = report.p95_us;
  row.p99_us = report.p99_us;
  row.shed = shed;
  return row;
}

void WriteBenchJson(const std::string& path,
                    const std::vector<BenchRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  DPDP_CHECK(out.good());
  out << "{\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"ns_per_op\": %g, "
                  "\"items_per_second\": %g, \"p50_us\": %g, "
                  "\"p95_us\": %g, \"p99_us\": %g, \"shed\": %ld}",
                  r.name.c_str(), r.ns_per_op, r.decisions_per_second,
                  r.p50_us, r.p95_us, r.p99_us, r.shed);
    out << line << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  DPDP_CHECK(out.good());
}

}  // namespace

int main() {
  const int clients = dpdp::EnvIntStrict("DPDP_SERVE_CLIENTS", 8, 1, 100000);
  const int episodes = dpdp::EnvIntStrict("DPDP_SERVE_EPISODES", 1, 1, 1000000);
  const int orders = dpdp::EnvIntStrict("DPDP_SERVE_ORDERS", 24, 1, 100000);
  const int vehicles = dpdp::EnvIntStrict("DPDP_SERVE_VEHICLES", 8, 1, 100000);
  const int hidden = dpdp::EnvIntStrict("DPDP_SERVE_HIDDEN", 512, 1, 4096);
  DPDP_CHECK(clients > 0 && episodes > 0);

  // One sampled campus per client, each with its own seed. Client i's
  // workload is identical across the two runs below — that's what makes
  // the bitwise comparison meaningful.
  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/3, /*mean_orders_per_day=*/90.0));
  std::vector<dpdp::Instance> campuses;
  campuses.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    campuses.push_back(dataset.SampleInstance(
        "campus-" + std::to_string(i), orders, vehicles,
        /*day_lo=*/0, /*day_hi=*/2, /*seed=*/100 + i));
  }
  std::vector<const dpdp::Instance*> instance_ptrs;
  for (const dpdp::Instance& inst : campuses) instance_ptrs.push_back(&inst);

  // ST-DDQN-family policy; width is a knob because the batching win is a
  // GEMM-amortization effect and scales with model size.
  dpdp::AgentConfig config = dpdp::MakeStDdqnConfig(/*seed=*/5);
  config.hidden_dim = hidden;

  // The served workload runs in two phases (a model hot-swap lands between
  // them), so the unbatched baseline runs the doubled episode count in one
  // go — same total work, same seeds.
  dpdp::serve::LoadOptions options;
  options.episodes_per_client = episodes;
  options.sim.record_plan = true;  // OA needed for the bitwise check.
  dpdp::serve::LoadOptions unbatched_options = options;
  unbatched_options.episodes_per_client = 2 * episodes;

  // ---- Run 1: N independent unbatched agents (the baseline). ----
  std::printf("serve_demo: %d campuses x 2x%d episode(s), %d orders, "
              "%d vehicles, hidden=%d\n",
              clients, episodes, orders, vehicles, hidden);
  const dpdp::serve::LoadReport unbatched = dpdp::serve::RunLocalAgentsLoad(
      instance_ptrs, config, unbatched_options);
  std::printf("  unbatched: %ld decisions, %.0f dec/s, p50 %.0f us, "
              "p99 %.0f us\n",
              unbatched.total_decisions, unbatched.decisions_per_second,
              unbatched.p50_us, unbatched.p99_us);

  // ---- Run 2: the same campuses through one shared service. ----
  // The model comes in through the real serving path: a checkpoint file on
  // disk, loaded by the watcher. Its weights are the same deterministic
  // init the local agents used, so decisions must match bitwise.
  const fs::path model_dir =
      fs::temp_directory_path() /
      ("dpdp_serve_demo_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(model_dir);
  fs::create_directories(model_dir);
  {
    dpdp::DqnFleetAgent producer(config, "producer");
    const dpdp::Status saved = dpdp::SaveCheckpoint(
        (model_dir / "policy.ckpt").string(), /*episodes_done=*/1, producer,
        /*seq=*/1);
    DPDP_CHECK(saved.ok());
  }
  dpdp::serve::ModelServer models(config);
  DPDP_CHECK(models.PollOnce(model_dir.string()) == 1);
  DPDP_CHECK(models.current_seq() == 1);
  models.StartWatcher(model_dir.string(), /*poll_ms=*/5);

  // A closed loop of `clients` blocked callers never has more than
  // `clients` requests pending, so the flush trigger defaults to exactly
  // that (the env-var overrides still win).
  dpdp::serve::ServeConfig serve_config;
  serve_config.max_batch =
      dpdp::EnvIntStrict("DPDP_SERVE_MAX_BATCH", clients, 1, 65536);
  serve_config.max_wait_us =
      dpdp::EnvIntStrict("DPDP_SERVE_MAX_WAIT_US", 300, 0, 60000000);
  serve_config.queue_capacity =
      dpdp::EnvIntStrict("DPDP_SERVE_QUEUE_CAP", 256, 1, 100000000);
  dpdp::serve::DispatchService service(serve_config, &models);

  // Phase A on the checkpoint-loaded model...
  const dpdp::serve::LoadReport served_a =
      dpdp::serve::RunServedLoad(instance_ptrs, &service, options);

  // ...then "training" publishes a newer checkpoint (same weights, higher
  // seq) while the service stays live, and phase B runs across the swap.
  // Identical weights keep phase B bitwise-equal to the local agents, so
  // the swap is provably invisible to decisions; the swaps_applied counter
  // proves it really happened inside the live service loop.
  {
    dpdp::DqnFleetAgent producer(config, "producer");
    const dpdp::Status saved = dpdp::SaveCheckpoint(
        (model_dir / "policy_v2.ckpt").string(), /*episodes_done=*/2,
        producer, /*seq=*/2);
    DPDP_CHECK(saved.ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (models.current_seq() != 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  DPDP_CHECK(models.current_seq() == 2);  // The watcher picked it up.
  const dpdp::serve::LoadReport served_b =
      dpdp::serve::RunServedLoad(instance_ptrs, &service, options);
  DPDP_CHECK(service.swaps_applied() >= 1);  // Swapped while serving.

  const dpdp::serve::LoadReport served = MergeReports(served_a, served_b);
  const uint64_t sheds = service.sheds();
  const uint64_t batches = service.batches();
  const uint64_t requests = service.requests();
  service.Stop();
  models.StopWatcher();
  fs::remove_all(model_dir);

  std::printf("  served:    %ld decisions, %.0f dec/s, p50 %.0f us, "
              "p99 %.0f us, %llu batches (mean %.2f), %llu shed, "
              "%llu swap(s) applied\n",
              served.total_decisions, served.decisions_per_second,
              served.p50_us, served.p99_us,
              static_cast<unsigned long long>(batches),
              batches > 0 ? static_cast<double>(requests - sheds) /
                                static_cast<double>(batches)
                          : 0.0,
              static_cast<unsigned long long>(sheds),
              static_cast<unsigned long long>(service.swaps_applied()));

  // ---- The invariants the serving layer is sold on. ----
  DPDP_CHECK(served.total_decisions == unbatched.total_decisions);
  DPDP_CHECK(sheds == 0);  // Nominal load: admission never tripped.
  for (int i = 0; i < clients; ++i) {
    const dpdp::serve::ClientOutcome& baseline = unbatched.clients[i];
    DPDP_CHECK(baseline.episodes.size() == static_cast<size_t>(2 * episodes));
    for (int e = 0; e < episodes; ++e) {
      CheckSameEpisode(baseline.episodes[e],
                       served_a.clients[i].episodes[e], i);
      CheckSameEpisode(baseline.episodes[episodes + e],
                       served_b.clients[i].episodes[e], i);
    }
  }
  std::printf("  bitwise check: all %d campuses identical served vs local, "
              "across the swap\n",
              clients);

  // Service-side view from the global registry: how long batches queued
  // and evaluated, independent of the client-measured round trips above.
  for (const dpdp::obs::MetricSnapshot& snap :
       dpdp::obs::MetricsRegistry::Global().Snapshot()) {
    if (snap.name != "serve.queue_wait_s" &&
        snap.name != "serve.eval_latency_s") {
      continue;
    }
    std::printf("  %s: p50 %.0f us, p95 %.0f us, p99 %.0f us (%llu samples)\n",
                snap.name.c_str(),
                dpdp::obs::HistogramQuantile(snap, 0.50) * 1e6,
                dpdp::obs::HistogramQuantile(snap, 0.95) * 1e6,
                dpdp::obs::HistogramQuantile(snap, 0.99) * 1e6,
                static_cast<unsigned long long>(snap.count));
  }

  const double speedup =
      unbatched.decisions_per_second > 0.0
          ? served.decisions_per_second / unbatched.decisions_per_second
          : 0.0;
  std::printf("  throughput: %.2fx vs unbatched agents\n", speedup);

  const std::string json_path =
      dpdp::EnvStr("DPDP_BENCH_JSON", "BENCH_5.json");
  WriteBenchJson(json_path,
                 {MakeRow("BM_ServeThroughput/" + std::to_string(clients),
                          served, static_cast<long>(sheds)),
                  MakeRow("BM_UnbatchedAgents/" + std::to_string(clients),
                          unbatched, 0)});
  std::printf("  wrote %s\n", json_path.c_str());
  return 0;
}
