// Ape-X training-fabric demo and benchmark: N closed-loop actors generate
// experience through the batched serving path (DispatchService /
// ShardRouter) while one learner consumes minibatches from its replay and
// hot-swaps new weights to the actors through the ModelServer snapshot
// channel.
//
// What it proves, end to end:
//   * deterministic replay-order mode is actor-count invariant — the
//     1-actor and 4-actor runs finish with bit-identical policy weights
//     and identical per-episode results (the same golden the test suite
//     asserts, re-checked here on the benchmark configuration);
//   * the actors really train through the fabric: nonzero learner steps,
//     at least one published snapshot per run, and every actor saw a
//     model sequence number >= 1 (i.e. decisions were scored on weights
//     the learner published mid-run, not just the seed snapshot);
//   * experience-generation throughput scales with the actor count
//     against the pre-fabric baseline (one environment + one local agent
//     per seed, run sequentially).
//
// A note on the scaling measurement: decision evaluation is CPU-bound, so
// on a single core the fabric cannot out-compute a local agent. What it
// CAN do is amortize the one cost that is not CPU: the synchronous
// downstream commit per dispatch batch (ServeConfig::commit_us — "wait
// for the dispatch channel to ack before releasing replies"). The
// baseline pays that ack once per decision; the fabric pays it once per
// micro-batch, so four concurrent actors share each wait. Set
// DPDP_SERVE_COMMIT_US=0 to watch the work-conserving (flat) curve
// instead.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/apex_train_demo
//
// Knobs (all optional):
//   DPDP_TRAIN_ORDERS      orders per episode        (default 10)
//   DPDP_TRAIN_VEHICLES    vehicles                  (default 4)
//   DPDP_TRAIN_HIDDEN      policy hidden width       (default 32)
//   DPDP_TRAIN_EPISODES    episodes per run          (default 12)
//   DPDP_TRAIN_SYNC_EVERY  episodes per generation   (default 4)
//   DPDP_SERVE_COMMIT_US   per-batch commit latency  (default 4000)
//   DPDP_BENCH_JSON        result file               (default BENCH_8.json)
//   DPDP_METRICS_DIR       also dump the registry snapshot there

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dpdp.h"

namespace {

/// The pre-fabric baseline's dispatch channel: forwards every decision to
/// the wrapped dispatcher, then blocks on the downstream ack that the
/// serving fabric pays once per micro-batch.
class CommitWaitDispatcher : public dpdp::Dispatcher {
 public:
  CommitWaitDispatcher(dpdp::Dispatcher* inner, long commit_us)
      : inner_(inner), commit_us_(commit_us) {}

  const char* name() const override { return "commit_wait"; }
  int Act(const dpdp::DispatchContext& context) override {
    const int vehicle = inner_->Act(context);
    if (commit_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(commit_us_));
    }
    return vehicle;
  }
  void Observe(const dpdp::DispatchContext& context, int vehicle) override {
    inner_->Observe(context, vehicle);
  }
  void Learn(const dpdp::EpisodeResult& result) override {
    inner_->Learn(result);
  }

 private:
  dpdp::Dispatcher* inner_;
  long commit_us_;
};

/// Aborts unless the two weight sets are bitwise identical.
void CheckSameWeights(const std::vector<dpdp::nn::Matrix>& a,
                      const std::vector<dpdp::nn::Matrix>& b) {
  DPDP_CHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    DPDP_CHECK(a[i].rows() == b[i].rows());
    DPDP_CHECK(a[i].cols() == b[i].cols());
    for (int r = 0; r < a[i].rows(); ++r) {
      for (int c = 0; c < a[i].cols(); ++c) {
        DPDP_CHECK(a[i](r, c) == b[i](r, c));
      }
    }
  }
}

void CheckSameEpisode(const dpdp::EpisodeResult& a,
                      const dpdp::EpisodeResult& b) {
  DPDP_CHECK(a.num_served == b.num_served);
  DPDP_CHECK(a.num_unserved == b.num_unserved);
  DPDP_CHECK(a.num_decisions == b.num_decisions);
  DPDP_CHECK(a.nuv == b.nuv);
  DPDP_CHECK(a.total_travel_length == b.total_travel_length);
  DPDP_CHECK(a.total_cost == b.total_cost);
}

struct BenchRow {
  std::string name;
  double ns_per_op = 0.0;  ///< Wall nanoseconds per recorded transition.
  double transitions_per_second = 0.0;
  long transitions = 0;
  double wall_seconds = 0.0;
};

BenchRow MakeRow(const std::string& name, long transitions,
                 double wall_seconds) {
  BenchRow row;
  row.name = name;
  row.transitions = transitions;
  row.wall_seconds = wall_seconds;
  if (transitions > 0 && wall_seconds > 0.0) {
    row.transitions_per_second = transitions / wall_seconds;
    row.ns_per_op = wall_seconds * 1e9 / static_cast<double>(transitions);
  }
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
                  "\"items_per_second\": %g, \"transitions\": %ld, "
                  "\"wall_seconds\": %g}",
                  r.name.c_str(), r.ns_per_op, r.transitions_per_second,
                  r.transitions, r.wall_seconds);
    out << line << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  DPDP_CHECK(out.good());
}

}  // namespace

int main() {
  const int orders = dpdp::EnvIntStrict("DPDP_TRAIN_ORDERS", 10, 1, 100000);
  const int vehicles = dpdp::EnvIntStrict("DPDP_TRAIN_VEHICLES", 4, 1, 100000);
  const int hidden = dpdp::EnvIntStrict("DPDP_TRAIN_HIDDEN", 32, 1, 4096);
  const int episodes =
      dpdp::EnvIntStrict("DPDP_TRAIN_EPISODES", 12, 1, 1000000);
  const int sync_every =
      dpdp::EnvIntStrict("DPDP_TRAIN_SYNC_EVERY", 4, 1, 1000000);
  const long commit_us =
      dpdp::EnvIntStrict("DPDP_SERVE_COMMIT_US", 4000, 0, 60000000);

  dpdp::DpdpDataset dataset(
      dpdp::StandardDatasetConfig(/*seed=*/3, /*mean_orders_per_day=*/90.0));
  const dpdp::Instance instance = dataset.SampleInstance(
      "apex-campus", orders, vehicles, /*day_lo=*/0, /*day_hi=*/2,
      /*seed=*/100);

  dpdp::AgentConfig agent_config = dpdp::MakeStDdqnConfig(/*seed=*/5);
  agent_config.hidden_dim = hidden;
  agent_config.epsilon_decay_episodes = episodes;
  agent_config.batch_size = 8;

  std::printf("apex_train_demo: %d orders, %d vehicles, hidden=%d, "
              "%d episodes, sync_every=%d, commit=%ldus\n",
              orders, vehicles, hidden, episodes, sync_every, commit_us);

  std::vector<BenchRow> rows;

  // --- Baseline: one environment + one local agent per seed, sequential,
  // paying the downstream ack per decision.
  {
    dpdp::DqnFleetAgent agent(agent_config, "baseline");
    agent.set_training(true);
    CommitWaitDispatcher channel(&agent, commit_us);
    dpdp::Environment env(&instance);
    long transitions = 0;
    const dpdp::WallTimer timer;
    for (int e = 0; e < episodes; ++e) {
      transitions += dpdp::RunEpisode(&env, &channel).num_decisions;
    }
    rows.push_back(
        MakeRow("BM_OneSimPerSeed", transitions, timer.ElapsedSeconds()));
    std::printf("  %-20s %8.1f transitions/s  (%ld transitions, %.2fs)\n",
                "one-sim-per-seed", rows.back().transitions_per_second,
                transitions, rows.back().wall_seconds);
  }

  // --- The fabric at 1 and 4 actors: identical configuration except the
  // actor count, so the deterministic-mode golden applies to the exact
  // runs being timed.
  std::vector<dpdp::train::ApexReport> reports;
  std::vector<std::vector<dpdp::nn::Matrix>> weights;
  for (const int actors : {1, 4}) {
    dpdp::train::ApexConfig config;
    config.num_actors = actors;
    config.episodes = episodes;
    config.sync_every = sync_every;
    config.deterministic = true;
    config.updates_per_generation = 8;
    config.serve.max_batch = 8;
    config.serve.max_wait_us = 50;
    config.serve.commit_us = commit_us;
    dpdp::train::ApexTrainer trainer(&instance, config, agent_config);
    reports.push_back(trainer.Run());
    weights.push_back(trainer.PolicyWeights());
    const dpdp::train::ApexReport& report = reports.back();
    rows.push_back(MakeRow("BM_ApexActors/" + std::to_string(actors),
                           report.transitions, report.wall_seconds));
    std::printf("  %-20s %8.1f transitions/s  (%ld transitions, %.2fs, "
                "%llu learner steps, %llu publishes, max seen seq %llu)\n",
                ("apex actors=" + std::to_string(actors)).c_str(),
                report.transitions_per_second, report.transitions,
                report.wall_seconds,
                static_cast<unsigned long long>(report.learner_updates),
                static_cast<unsigned long long>(report.publishes),
                static_cast<unsigned long long>(report.max_model_seq_seen));

    // The actors genuinely trained through the fabric.
    DPDP_CHECK(report.episodes_done == episodes);
    DPDP_CHECK(report.learner_updates > 0);
    DPDP_CHECK(report.publishes >= 1);
    DPDP_CHECK(report.max_model_seq_seen >= 1);
    DPDP_CHECK(report.sheds == 0);
  }

  // --- The golden: actor count must not change the learned weights or
  // any episode outcome.
  CheckSameWeights(weights[0], weights[1]);
  DPDP_CHECK(reports[0].episodes.size() == reports[1].episodes.size());
  for (size_t e = 0; e < reports[0].episodes.size(); ++e) {
    CheckSameEpisode(reports[0].episodes[e], reports[1].episodes[e]);
  }
  DPDP_CHECK(reports[0].transitions == reports[1].transitions);
  std::printf("  golden: 1-actor and 4-actor weights bitwise identical "
              "across %d episodes\n", episodes);

  const double speedup = rows[2].transitions_per_second /
                         rows[0].transitions_per_second;
  std::printf("  4-actor speedup over one-sim-per-seed: %.2fx\n", speedup);

  // The train.* registry rollup must reconcile exactly against the two
  // fabric runs (the baseline records no train.* metrics).
  auto& registry = dpdp::obs::MetricsRegistry::Global();
  DPDP_CHECK(registry.GetCounter("train.episodes")->Value() ==
             static_cast<uint64_t>(2 * episodes));
  DPDP_CHECK(registry.GetCounter("train.transitions")->Value() ==
             static_cast<uint64_t>(reports[0].transitions +
                                   reports[1].transitions));
  DPDP_CHECK(registry.GetCounter("train.learner_steps")->Value() ==
             reports[0].learner_updates + reports[1].learner_updates);
  DPDP_CHECK(registry.GetCounter("train.publishes")->Value() ==
             reports[0].publishes + reports[1].publishes);

  const std::string bench_path =
      dpdp::EnvStr("DPDP_BENCH_JSON", "BENCH_8.json");
  WriteBenchJson(bench_path, rows);
  std::printf("  wrote %s\n", bench_path.c_str());
  DPDP_CHECK_OK(dpdp::obs::WriteMetricsFiles());
  return 0;
}
