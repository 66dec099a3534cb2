// Chaos soak for the fault-tolerant serving fabric: a sharded fabric with
// seeded fault injection (service-loop crashes, stalls, slow evaluations)
// is driven by closed-loop clients while a trainer stand-in publishes
// checkpoints — some deliberately corrupt, some stale — and the
// ShardSupervisor's watchdog keeps the whole thing alive.
//
// What it proves, end to end, with a FIXED chaos seed (replayable):
//   * zero lost replies: every submitted request resolves — through the
//     model, the deadline fallback, or a shed — never a hung future;
//   * zero wrong replies: every model answer equals the local ground
//     truth for the snapshot seq it was scored on, crashes, restarts and
//     reroutes notwithstanding (the batching invariant under failover);
//   * crashed shards are supervised back up (restarts > 0) after their
//     partition failed over (rerouted > 0), and the per-shard request
//     ledger still rolls up exactly to the aggregate counter;
//   * corrupt checkpoint publishes are quarantined (serve.ckpt_rejected
//     > 0) and stale re-publishes skipped (serve.model_stale_skips > 0)
//     while valid ones keep hot-swapping mid-soak;
//   * tail latency stays bounded: p99 is deadline + watchdog + backoff
//     scale, orders of magnitude under the lost-reply timeout.
//
// The CI chaos-smoke job runs this binary with DPDP_METRICS_DIR set and
// asserts the restarts / reroutes / rejected counters straight from the
// metrics_snapshot.json artifact.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/chaos_serve_demo
//
// Knobs (all optional):
//   DPDP_CHAOS_SHARDS        shards                     (default 4)
//   DPDP_CHAOS_CLIENTS       closed-loop clients        (default 8)
//   DPDP_CHAOS_MAX_WAVES     wave cap before giving up  (default 200)
//   DPDP_SERVE_CHAOS_SEED    chaos schedule seed        (default 42)
//   DPDP_SERVE_DEADLINE_US   per-request deadline       (default 20000)
//   DPDP_BENCH_JSON          result file                (default BENCH_7.json)
//   DPDP_METRICS_DIR         also dump registry + trace there
//
// Telemetry-plane knobs (all default OFF; see README "Telemetry"):
//   DPDP_OBS_HTTP_PORT       /metrics, /slo, /timeseries, plus a
//                            supervisor-backed /healthz (503 while any
//                            shard scans dead)
//   DPDP_OBS_SAMPLE_MS       time-series sampling period
//   DPDP_SLO_* / DPDP_FLIGHT_RECORDER   SLO monitor + black box
//   DPDP_OBS_LINGER_MS       keep the exporter up after the soak

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dpdp.h"

namespace fs = std::filesystem;

namespace {

/// A hand-built decision context (no simulator): vehicle v's incremental
/// length is 3 + v, so the greedy fallback always picks vehicle 0 — shed
/// and deadline-expired replies have a known ground truth.
struct FixedContext {
  explicit FixedContext(const dpdp::Instance* inst, int num_vehicles = 4) {
    context.instance = inst;
    context.order = &inst->orders[0];
    context.now = 100.0;
    context.time_interval = 10;
    context.options.resize(num_vehicles);
    for (int v = 0; v < num_vehicles; ++v) {
      dpdp::VehicleOption& opt = context.options[v];
      opt.vehicle = v;
      opt.feasible = true;
      opt.used = (v % 2) != 0;
      opt.num_assigned_orders = v;
      opt.current_length = 5.0 + v;
      opt.new_length = 8.0 + 2.0 * v;
      opt.incremental_length = 3.0 + v;
      opt.st_score = 0.0;
      opt.position = {static_cast<double>(v), 0.0};
    }
    context.num_feasible = num_vehicles;
  }
  dpdp::DispatchContext context;
};

/// Truncates `path` to half its size — a torn write whose CRC cannot pass.
void TearFile(const fs::path& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
}

/// Current value of a registry counter (0 when it does not exist yet).
double Counter(const std::string& name) {
  const auto snapshot = dpdp::obs::MetricsRegistry::Global().Snapshot();
  const dpdp::obs::MetricSnapshot* m = dpdp::obs::FindMetric(snapshot, name);
  return m != nullptr && m->kind == dpdp::obs::MetricSnapshot::Kind::kCounter
             ? m->value
             : 0.0;
}

/// Sum of serve.shard<k>.<field> over all shards in the registry.
double ShardSum(int num_shards, const std::string& field) {
  double sum = 0.0;
  for (int k = 0; k < num_shards; ++k) {
    sum += Counter("serve.shard" + std::to_string(k) + "." + field);
  }
  return sum;
}

}  // namespace

int main() {
  const int num_shards = dpdp::EnvIntStrict("DPDP_CHAOS_SHARDS", 4, 1, 256);
  const int num_clients =
      dpdp::EnvIntStrict("DPDP_CHAOS_CLIENTS", 8, 1, 100000);
  const int max_waves =
      dpdp::EnvIntStrict("DPDP_CHAOS_MAX_WAVES", 200, 1, 1000000);
  const long deadline_us =
      dpdp::EnvIntStrict("DPDP_SERVE_DEADLINE_US", 20000, 0, 600000000);
  constexpr int kRequestsPerWave = 10;
  DPDP_CHECK(num_shards >= 2 && num_clients >= 1);

  // Two weight sets with one architecture: the trainer stand-in publishes
  // checkpoint seq n with parity-selected weights, so the ground truth of
  // ANY model reply is a pure function of its model_seq — even across
  // crashes, restarts and reroutes. The server's init snapshot (seq 0)
  // carries config_a's weights, which matches the even-parity rule.
  const dpdp::AgentConfig config_a = dpdp::MakeStDdqnConfig(/*seed=*/5);
  dpdp::AgentConfig config_b = config_a;
  config_b.seed = 4242;

  // One tiny campus per client: FixedContext hand-builds the decision, so
  // the instance only anchors the campus name (the shard key) + one order.
  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/3, /*mean_orders_per_day=*/90.0));
  std::vector<dpdp::Instance> campuses;
  campuses.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    campuses.push_back(dataset.SampleInstance(
        "campus-" + std::to_string(c), /*num_orders=*/2, /*num_vehicles=*/4,
        /*day_lo=*/0, /*day_hi=*/2, /*seed=*/100 + c));
  }
  std::vector<std::unique_ptr<FixedContext>> contexts;
  contexts.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    contexts.push_back(std::make_unique<FixedContext>(&campuses[c]));
  }

  // Ground truth per weight set, from independent local agents.
  const int choice_a = [&] {
    dpdp::DqnFleetAgent agent(config_a, "truth-a");
    return agent.Act(contexts[0]->context);
  }();
  const int choice_b = [&] {
    dpdp::DqnFleetAgent agent(config_b, "truth-b");
    return agent.Act(contexts[0]->context);
  }();

  // The fabric under chaos: crashes, stalls, slowdowns AND corrupt
  // publishes all drawn from one fixed-seed schedule.
  dpdp::serve::ShardedServeConfig serve_config;
  serve_config.num_shards = num_shards;
  serve_config.shard.max_batch = 8;
  serve_config.shard.max_wait_us = 200;
  serve_config.shard.queue_capacity = 256;
  serve_config.shard.deadline_us = deadline_us;
  serve_config.shard.chaos.seed =
      dpdp::EnvU64Strict("DPDP_SERVE_CHAOS_SEED", 42);
  serve_config.shard.chaos.crash_prob = 0.05;
  serve_config.shard.chaos.stall_prob = 0.05;
  serve_config.shard.chaos.stall_us = 5000;
  serve_config.shard.chaos.slow_prob = 0.10;
  serve_config.shard.chaos.slow_us = 500;
  serve_config.shard.chaos.corrupt_publish_prob = 0.35;
  const dpdp::serve::ChaosPolicy publish_chaos(serve_config.shard.chaos);

  dpdp::serve::ModelServer models(config_a);
  const fs::path ckpt_dir =
      fs::temp_directory_path() /
      ("dpdp_chaos_demo_" + std::to_string(static_cast<uint64_t>(::getpid())));
  fs::remove_all(ckpt_dir);
  fs::create_directories(ckpt_dir);
  models.StartWatcher(ckpt_dir.string(), /*poll_ms=*/5);

  dpdp::serve::ShardRouter router(serve_config, &models);
  dpdp::serve::SupervisorConfig sup_config;
  sup_config.watchdog_period_ms = 2;
  sup_config.stuck_after_ms = 100;
  sup_config.breaker.failure_threshold = 2;
  sup_config.breaker.backoff.initial_backoff_ms = 5;
  sup_config.breaker.backoff.max_backoff_ms = 40;
  dpdp::serve::ShardSupervisor supervisor(sup_config, &router);
  supervisor.Start();

  std::printf("chaos_serve_demo: %d shards, %d clients, chaos seed %llu, "
              "deadline %ld us\n",
              num_shards, num_clients,
              static_cast<unsigned long long>(serve_config.shard.chaos.seed),
              deadline_us);

  // The live telemetry plane (env-driven, inert by default). The default
  // /healthz is replaced with a supervisor-backed one: 503 while any shard
  // scans dead, with the per-shard verdicts in the body — so the CI smoke
  // job's scrape checks the watchdog, not just the socket.
  dpdp::obs::Telemetry telemetry(dpdp::obs::Telemetry::FromEnv());
  telemetry.Start();
  if (telemetry.exporter().running()) {
    telemetry.exporter().AddEndpoint("/healthz", [&supervisor, num_shards] {
      dpdp::obs::HttpResponse response;
      bool all_up = true;
      std::string body;
      for (int k = 0; k < num_shards; ++k) {
        const dpdp::serve::ShardHealth health = supervisor.health(k);
        if (health == dpdp::serve::ShardHealth::kDead) all_up = false;
        body += "shard" + std::to_string(k) + " " +
                dpdp::serve::ShardHealthName(health) + "\n";
      }
      response.status = all_up ? 200 : 503;
      response.body = (all_up ? "ok\n" : "degraded\n") + body;
      return response;
    });
    std::printf("  telemetry: http://127.0.0.1:%d/metrics\n",
                telemetry.exporter().port());
  }

  // Trainer stand-in: publishes checkpoint seq n every ~10 ms with
  // parity-selected weights. The chaos stream tears some publishes
  // (exercising CRC rejection and, after repeated probes, quarantine),
  // and every 7th publish also re-drops a superseded seq-1 file — a
  // "backup restored into the live directory" the watcher must skip
  // without rolling the model back.
  std::atomic<bool> stop_publisher{false};
  std::thread publisher([&] {
    dpdp::DqnFleetAgent agent_a(config_a, "trainer-a");
    dpdp::DqnFleetAgent agent_b(config_b, "trainer-b");
    uint64_t seq = 0;
    while (!stop_publisher.load()) {
      ++seq;
      const fs::path path =
          ckpt_dir / ("ckpt_" + std::to_string(seq) + ".ckpt");
      dpdp::DqnFleetAgent& source = (seq % 2 == 0) ? agent_a : agent_b;
      const dpdp::Status saved = dpdp::SaveCheckpoint(
          path.string(), static_cast<int>(seq), source, seq);
      DPDP_CHECK(saved.ok());
      if (publish_chaos.CorruptPublishAt(seq)) TearFile(path);
      if (seq % 7 == 0 && models.current_seq() >= 2) {
        const std::string stale_path =
            (ckpt_dir / ("stale_" + std::to_string(seq) + ".ckpt")).string();
        const dpdp::Status stale = dpdp::SaveCheckpoint(
            stale_path, /*episodes_done=*/1, agent_b, /*seq=*/1);
        DPDP_CHECK(stale.ok());
        // An operator "restoring a backup" into the live model: the footer
        // seq is superseded, so the server must skip it (stale is a
        // polling outcome, not an error) and never roll the model back.
        const dpdp::Status skipped = models.LoadCheckpointFile(stale_path);
        DPDP_CHECK(skipped.ok());
        DPDP_CHECK(models.current_seq() >= 2);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Closed-loop clients in waves, until chaos has demonstrably hit on all
  // four fronts (a supervised restart, a failover reroute, a quarantined
  // checkpoint, a stale skip) or the wave / wall-clock caps say this seed
  // cannot produce them (seed 42 can — the caps guard retuned knobs).
  std::atomic<long> unanswered{0};
  std::atomic<long> mismatches{0};
  std::atomic<long> sheds_seen{0};
  std::atomic<long> deadline_seen{0};
  std::mutex latency_mu;
  std::vector<double> latencies_s;
  long total_requests = 0;
  int waves = 0;

  const auto t0 = std::chrono::steady_clock::now();
  const auto time_cap = t0 + std::chrono::seconds(120);
  while (waves < max_waves && std::chrono::steady_clock::now() < time_cap) {
    ++waves;
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> local_lat;
        local_lat.reserve(kRequestsPerWave);
        for (int i = 0; i < kRequestsPerWave; ++i) {
          const auto start = std::chrono::steady_clock::now();
          std::future<dpdp::serve::ServeReply> fut =
              router.Submit(contexts[c]->context);
          if (fut.wait_for(std::chrono::seconds(60)) !=
              std::future_status::ready) {
            ++unanswered;  // A lost promise: the one absolute failure.
            continue;
          }
          const dpdp::serve::ServeReply reply = fut.get();
          local_lat.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
          if (reply.shed) ++sheds_seen;
          if (reply.deadline_exceeded) ++deadline_seen;
          int want;
          if (reply.shed || reply.deadline_exceeded) {
            want = 0;  // Greedy fallback on FixedContext.
          } else {
            want = (reply.model_seq % 2 == 0) ? choice_a : choice_b;
          }
          if (reply.vehicle != want) ++mismatches;
        }
        std::lock_guard<std::mutex> lock(latency_mu);
        latencies_s.insert(latencies_s.end(), local_lat.begin(),
                           local_lat.end());
      });
    }
    for (std::thread& t : clients) t.join();
    total_requests += static_cast<long>(num_clients) * kRequestsPerWave;

    const dpdp::serve::RouterStats wave_stats = router.Stats();
    if (wave_stats.total.restarts >= 1 && wave_stats.total.rerouted >= 1 &&
        Counter("serve.ckpt_rejected") >= 1.0 &&
        Counter("serve.model_stale_skips") >= 1.0) {
      break;
    }
  }

  stop_publisher.store(true);
  publisher.join();
  supervisor.Stop();  // Always before the router (restart/teardown race).
  router.Stop();
  models.StopWatcher();

  const dpdp::serve::RouterStats stats = router.Stats();
  const double p50_us =
      dpdp::serve::PercentileNearestRank(latencies_s, 0.50) * 1e6;
  const double p99_us =
      dpdp::serve::PercentileNearestRank(latencies_s, 0.99) * 1e6;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf(
      "  %ld requests over %d wave(s) in %.1f s: %ld unanswered, "
      "%ld mismatched, %ld shed, %ld past deadline\n",
      total_requests, waves, wall_s, unanswered.load(), mismatches.load(),
      sheds_seen.load(), deadline_seen.load());
  std::printf(
      "  chaos: %.0f crash(es) -> %llu restart(s), %llu rerouted; "
      "%.0f ckpt rejected, %.0f stale skipped, %.0f hot swaps; "
      "p50 %.0f us, p99 %.0f us\n",
      Counter("serve.chaos.crashes"),
      static_cast<unsigned long long>(stats.total.restarts),
      static_cast<unsigned long long>(stats.total.rerouted),
      Counter("serve.ckpt_rejected"), Counter("serve.model_stale_skips"),
      Counter("serve.model_swaps"), p50_us, p99_us);

  // ---- The invariants the fault-tolerance layer is sold on. ----
  DPDP_CHECK(unanswered.load() == 0);  // Zero lost replies, ever.
  DPDP_CHECK(mismatches.load() == 0);  // Failover never changes answers.
  DPDP_CHECK(stats.total.requests == static_cast<uint64_t>(total_requests));
  DPDP_CHECK(stats.total.restarts >= 1);
  DPDP_CHECK(stats.total.rerouted >= 1);
  DPDP_CHECK(Counter("serve.ckpt_rejected") >= 1.0);
  DPDP_CHECK(Counter("serve.model_stale_skips") >= 1.0);
  // Bounded tail: recovery is deadline + watchdog + backoff scale. The
  // bound is deliberately loose — the point is "orders of magnitude below
  // the 60 s lost-reply timeout", not a machine-speed benchmark.
  DPDP_CHECK(p99_us < 1e6);
  // Exact rollup under chaos, straight from the global registry: every
  // admitted request was booked once on its shard and once aggregate.
  DPDP_CHECK(Counter("serve.requests") == ShardSum(num_shards, "requests"));
  std::printf("  all chaos invariants held\n");

  // Bench row + registry dump for the CI chaos-smoke artifact.
  const std::string json_path =
      dpdp::EnvStr("DPDP_BENCH_JSON", "BENCH_7.json");
  {
    std::ofstream out(json_path, std::ios::trunc);
    DPDP_CHECK(out.good());
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\n  \"benchmarks\": [\n    {\"name\": \"BM_ChaosServeSoak\", "
        "\"requests\": %ld, \"unanswered\": %ld, \"restarts\": %llu, "
        "\"rerouted\": %llu, \"p50_us\": %g, \"p99_us\": %g}\n  ]\n}\n",
        total_requests, unanswered.load(),
        static_cast<unsigned long long>(stats.total.restarts),
        static_cast<unsigned long long>(stats.total.rerouted), p50_us,
        p99_us);
    out << line;
    DPDP_CHECK(out.good());
  }
  std::printf("  wrote %s\n", json_path.c_str());

  // Deterministic scrape window for external scrapers, then stop the
  // plane (final time-series sample + timeseries.csv/json export).
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

  const dpdp::Status metrics_written = dpdp::obs::WriteMetricsFiles();
  DPDP_CHECK(metrics_written.ok());

  fs::remove_all(ckpt_dir);
  return 0;
}
