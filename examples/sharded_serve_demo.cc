// City-scale sharded serving demo and benchmark: hundreds of campuses and
// roughly a thousand closed-loop clients are served through the sharded
// dispatch fabric at several shard counts, and every configuration is
// checked bitwise against independent local agents before throughput is
// compared.
//
// What it proves, end to end:
//   * the shard count is a pure throughput knob — per-campus episode
//     results are bitwise identical at every shard count AND to the
//     unsharded local-agent baseline;
//   * the campus-hash partition spreads a large campus population across
//     every shard (no shard starves), and per-shard request accounting
//     rolls up exactly to the aggregate;
//   * aggregate served throughput scales with the shard count when the
//     per-batch downstream commit dominates the serving cost.
//
// A note on the scaling measurement: decision evaluation is CPU-bound, so
// on a single core a work-conserving service loop cannot go faster by
// being split into shards. The demo therefore models the one fabric cost
// that is NOT CPU: a synchronous downstream commit per batch
// (ServeConfig::commit_us — think "wait for the dispatch channel to ack
// the batch before releasing replies"). Commit waits consume no CPU and
// genuinely overlap across shard loops, which is exactly the property
// sharding buys in a real deployment. After the modeled-commit sweep
// (BM_ShardedServeThroughput/<shards> rows) the demo sweeps the same shard
// counts again with no commit stage (BM_ShardedServeComputeBound/<shards>
// rows): compute-bound numbers that no modeled sleep inflates, where the
// work-conserving curve stays flat on one core. With
// DPDP_SERVE_COMMIT_US=0 only the compute-bound sweep runs.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/sharded_serve_demo
//
// Knobs (all optional):
//   DPDP_SHARD_CAMPUSES    distinct campuses           (default 240)
//   DPDP_SHARD_CLIENTS     closed-loop clients         (default 960)
//   DPDP_SHARD_COUNTS      shard counts to sweep       (default "1,2,4,8")
//   DPDP_SHARD_ORDERS      orders per campus           (default 6)
//   DPDP_SHARD_VEHICLES    vehicles per campus         (default 4)
//   DPDP_SHARD_HIDDEN      policy hidden width         (default 64)
//   DPDP_SERVE_COMMIT_US   per-batch commit latency    (default 8000)
//   DPDP_SERVE_MAX_BATCH   flush at this many pending  (default 16)
//   DPDP_SERVE_MAX_WAIT_US ... or after this wait, us  (default 300)
//   DPDP_BENCH_JSON        result file                 (default BENCH_6.json)
//   DPDP_METRICS_DIR       also dump the registry snapshot there
//
// Telemetry-plane knobs (all default OFF; see README "Telemetry"):
//   DPDP_OBS_HTTP_PORT     /metrics + /healthz + /slo + /timeseries port
//   DPDP_OBS_SAMPLE_MS     time-series sampling period
//   DPDP_SLO_*             SLO objectives (window, p99, shed, deadline)
//   DPDP_OBS_LINGER_MS     keep the exporter up this long after the sweep
//                          so an external scraper (the CI telemetry-smoke
//                          job) can curl it deterministically

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dpdp.h"

namespace {

/// Aborts unless every deterministic field of the two episode results is
/// identical (wall-clock fields excluded: they measure the machine, not
/// the policy).
void CheckSameEpisode(const dpdp::EpisodeResult& local,
                      const dpdp::EpisodeResult& served) {
  DPDP_CHECK(local.num_served == served.num_served);
  DPDP_CHECK(local.num_unserved == served.num_unserved);
  DPDP_CHECK(local.num_decisions == served.num_decisions);
  DPDP_CHECK(local.num_degraded_decisions == served.num_degraded_decisions);
  DPDP_CHECK(local.nuv == served.nuv);
  DPDP_CHECK(local.total_travel_length == served.total_travel_length);
  DPDP_CHECK(local.total_cost == served.total_cost);
  DPDP_CHECK(local.sum_incremental_length == served.sum_incremental_length);
  DPDP_CHECK(local.order_assignment == served.order_assignment);
}

std::vector<int> ParseCounts(const std::string& spec) {
  std::vector<int> counts;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    // The DPDP_SERVE_SHARDS range.
    counts.push_back(static_cast<int>(
        dpdp::ParseIntStrict("DPDP_SHARD_COUNTS", item.c_str(), 1, 256)));
  }
  DPDP_CHECK(!counts.empty());
  return counts;
}

struct BenchRow {
  std::string name;
  double ns_per_op = 0.0;  ///< Wall nanoseconds per decision.
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
  const int num_campuses =
      dpdp::EnvIntStrict("DPDP_SHARD_CAMPUSES", 240, 1, 1000000);
  const int num_clients =
      dpdp::EnvIntStrict("DPDP_SHARD_CLIENTS", 960, 1, 100000);
  const int orders = dpdp::EnvIntStrict("DPDP_SHARD_ORDERS", 6, 1, 100000);
  const int vehicles = dpdp::EnvIntStrict("DPDP_SHARD_VEHICLES", 4, 1, 100000);
  const int hidden = dpdp::EnvIntStrict("DPDP_SHARD_HIDDEN", 64, 1, 4096);
  const long commit_us =
      dpdp::EnvIntStrict("DPDP_SERVE_COMMIT_US", 8000, 0, 60000000);
  const std::vector<int> shard_counts =
      ParseCounts(dpdp::EnvStr("DPDP_SHARD_COUNTS", "1,2,4,8"));
  DPDP_CHECK(num_campuses > 0 && num_clients >= num_campuses);

  // One sampled campus per name; clients round-robin over the campuses, so
  // several closed-loop clients share each campus (they are independent
  // request streams of the same site — their episodes are identical by
  // determinism, which the bitwise check exploits).
  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/3, /*mean_orders_per_day=*/90.0));
  std::vector<dpdp::Instance> campuses;
  campuses.reserve(num_campuses);
  for (int i = 0; i < num_campuses; ++i) {
    campuses.push_back(dataset.SampleInstance(
        "campus-" + std::to_string(i), orders, vehicles,
        /*day_lo=*/0, /*day_hi=*/2, /*seed=*/100 + i));
  }
  std::vector<const dpdp::Instance*> campus_ptrs;
  for (const dpdp::Instance& inst : campuses) campus_ptrs.push_back(&inst);
  std::vector<const dpdp::Instance*> client_ptrs;
  client_ptrs.reserve(num_clients);
  for (int i = 0; i < num_clients; ++i) {
    client_ptrs.push_back(&campuses[i % num_campuses]);
  }

  dpdp::AgentConfig config = dpdp::MakeStDdqnConfig(/*seed=*/5);
  config.hidden_dim = hidden;

  dpdp::serve::LoadOptions options;
  options.sim.record_plan = true;  // OA needed for the bitwise check.

  std::printf("sharded_serve_demo: %d campuses, %d clients, %d orders, "
              "%d vehicles, hidden=%d, commit=%ldus\n",
              num_campuses, num_clients, orders, vehicles, hidden,
              commit_us);

  // The live telemetry plane, entirely env-driven: with every knob at its
  // default this is an inert object; with DPDP_OBS_HTTP_PORT set the
  // sweep below can be scraped mid-run at /metrics.
  dpdp::obs::Telemetry telemetry(dpdp::obs::Telemetry::FromEnv());
  telemetry.Start();
  if (telemetry.exporter().running()) {
    std::printf("  telemetry: http://127.0.0.1:%d/metrics\n",
                telemetry.exporter().port());
  }

  // The ground truth: one local agent per campus, no service involved.
  // Client i of every sharded run below must match campus i % C bitwise.
  const dpdp::serve::LoadReport local =
      dpdp::serve::RunLocalAgentsLoad(campus_ptrs, config, options);
  std::printf("  local baseline: %ld decisions over %d campuses\n",
              local.total_decisions, num_campuses);

  // One snapshot source for every shard count: N shards subscribe to the
  // same ModelServer, so a sweep compares fabrics, not models.
  dpdp::serve::ModelServer models(config);

  // One sweep over the shard counts with `sweep_commit_us` per batch,
  // appending a `row_prefix`<shards> row per count.
  std::vector<BenchRow> rows;
  auto sweep = [&](long sweep_commit_us, const std::string& row_prefix) {
    const size_t first_row = rows.size();
    for (const int num_shards : shard_counts) {
      dpdp::serve::ShardedServeConfig serve_config;
      serve_config.num_shards = num_shards;
      serve_config.shard.max_batch =
          dpdp::EnvIntStrict("DPDP_SERVE_MAX_BATCH", 16, 1, 65536);
      serve_config.shard.max_wait_us =
          dpdp::EnvIntStrict("DPDP_SERVE_MAX_WAIT_US", 300, 0, 60000000);
      // Admission must never trip in this demo: a shed reply is a greedy
      // decision and would (correctly) fail the bitwise check.
      serve_config.shard.queue_capacity = num_clients;
      serve_config.shard.commit_us = sweep_commit_us;

      dpdp::serve::ShardRouter router(serve_config, &models);
      const dpdp::serve::LoadReport served =
          dpdp::serve::RunServedLoad(client_ptrs, &router, options);
      const dpdp::serve::RouterStats stats = router.Stats();
      router.Stop();

      // ---- The invariants the fabric is sold on. ----
      DPDP_CHECK(stats.total.sheds == 0);
      DPDP_CHECK(stats.total.requests ==
                 static_cast<uint64_t>(served.total_decisions));
      for (int i = 0; i < num_clients; ++i) {
        CheckSameEpisode(local.clients[i % num_campuses].episodes[0],
                         served.clients[i].episodes[0]);
      }
      // Every shard must have carried real traffic: the campus-hash
      // partition map may not starve a shard at this campus population.
      for (int k = 0; k < num_shards; ++k) {
        DPDP_CHECK(stats.shards[k].requests > 0);
      }

      std::printf("  %d shard(s), commit=%ldus: %ld decisions, %.0f dec/s, "
                  "p50 %.0f us, p99 %.0f us, %llu batches, 0 shed\n",
                  num_shards, sweep_commit_us, served.total_decisions,
                  served.decisions_per_second, served.p50_us, served.p99_us,
                  static_cast<unsigned long long>(stats.total.batches));
      rows.push_back(MakeRow(row_prefix + std::to_string(num_shards), served,
                             static_cast<long>(stats.total.sheds)));
    }
    double one_shard_ips = 0.0;
    for (size_t i = 0; i < shard_counts.size(); ++i) {
      if (shard_counts[i] == 1) {
        one_shard_ips = rows[first_row + i].decisions_per_second;
      }
    }
    if (one_shard_ips > 0.0) {
      std::printf("  scaling vs 1 shard, commit=%ldus:", sweep_commit_us);
      for (size_t i = 0; i < shard_counts.size(); ++i) {
        std::printf(" %dx=%.2f", shard_counts[i],
                    rows[first_row + i].decisions_per_second / one_shard_ips);
      }
      std::printf("\n");
    }
  };
  if (commit_us > 0) sweep(commit_us, "BM_ShardedServeThroughput/");
  sweep(0, "BM_ShardedServeComputeBound/");

  // Registry rollup: all served traffic flowed through tagged shards, so
  // the aggregate request counter equals the per-shard sum exactly — even
  // accumulated across the whole sweep.
  uint64_t aggregate = 0, per_shard_sum = 0;
  for (const dpdp::obs::MetricSnapshot& snap :
       dpdp::obs::MetricsRegistry::Global().Snapshot()) {
    if (snap.kind != dpdp::obs::MetricSnapshot::Kind::kCounter) continue;
    if (snap.name == "serve.requests") aggregate = snap.count;
    if (snap.name.rfind("serve.shard", 0) == 0 &&
        snap.name.size() > 11 &&
        snap.name.find(".requests") != std::string::npos) {
      per_shard_sum += snap.count;
    }
  }
  DPDP_CHECK(aggregate == per_shard_sum);
  std::printf("  rollup: serve.requests == sum(serve.shard<k>.requests) "
              "== %llu\n",
              static_cast<unsigned long long>(aggregate));

  const std::string json_path =
      dpdp::EnvStr("DPDP_BENCH_JSON", "BENCH_6.json");
  WriteBenchJson(json_path, rows);
  std::printf("  wrote %s\n", json_path.c_str());

  // Hold the exporter open so an external scraper has a deterministic
  // window over the fully-populated registry, then stop the plane (the
  // sampler's final export writes timeseries.csv/json under
  // DPDP_METRICS_DIR).
  const long linger_ms =
      dpdp::EnvIntStrict("DPDP_OBS_LINGER_MS", 0, 0, 3600000);
  if (linger_ms > 0 && telemetry.exporter().running()) {
    std::printf("  telemetry: lingering %ld ms for scrapers\n", linger_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  telemetry.Stop();
  if (telemetry.SloWindows() > 0) {
    std::printf("  slo: %llu window(s), %llu breach(es)\n",
                static_cast<unsigned long long>(telemetry.SloWindows()),
                static_cast<unsigned long long>(telemetry.SloBreaches()));
  }

  // Dump the registry (per-shard counters included) when asked: the CI
  // smoke job cross-checks the rollup from this artifact.
  const dpdp::Status metrics_written = dpdp::obs::WriteMetricsFiles();
  DPDP_CHECK(metrics_written.ok());
  return 0;
}
