#include "rl/trainer.h"

#include <filesystem>
#include <fstream>

#include "obs/trace.h"
#include "rl/agent.h"
#include "rl/checkpoint.h"
#include "stpred/std_matrix.h"
#include "util/env.h"
#include "util/log.h"

namespace dpdp {

std::string TrainOptions::checkpoint_path(
    const std::string& agent_name) const {
  std::string dir = checkpoint_dir;
  if (dir.empty()) dir = EnvStr("DPDP_CHECKPOINT_DIR", ".");
  return dir + "/" + agent_name + ".ckpt";
}

std::string TrainOptions::resolved_metrics_path() const {
  const std::string dir = EnvStr("DPDP_METRICS_DIR", "");
  return dir.empty() ? std::string() : dir + "/metrics.csv";
}

namespace {

/// Appends one row per finished episode to the metrics.csv time series
/// (the recorded data behind Fig. 8-style convergence plots). Opening or
/// writing failures log a warning and disable the writer — telemetry must
/// never sink a training run.
class EpisodeMetricsWriter {
 public:
  explicit EpisodeMetricsWriter(const std::string& path) {
    if (path.empty()) return;
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
      std::error_code ec;
      std::filesystem::create_directories(target.parent_path(), ec);
    }
    os_.open(path, std::ios::trunc);
    if (!os_) {
      DPDP_LOG(WARN) << "cannot open metrics file " << path
                     << "; episode metrics disabled";
      return;
    }
    os_ << "episode,nuv,total_cost,total_travel_length,loss,epsilon,"
           "mean_q,max_q,replay_size,num_decisions,decision_seconds,"
           "degraded,breakdowns,cancelled,replanned,unserved\n";
  }

  void WriteRow(int episode, const EpisodeResult& r,
                const TrainingStats& stats) {
    if (!os_.is_open() || !os_) return;
    os_ << episode << ',' << r.nuv << ',' << r.total_cost << ','
        << r.total_travel_length << ',' << stats.loss << ','
        << stats.epsilon << ',' << stats.mean_q << ',' << stats.max_q << ','
        << stats.replay_size << ',' << r.num_decisions << ','
        << r.decision_wall_seconds << ',' << r.num_degraded_decisions << ','
        << r.num_breakdowns << ',' << r.num_cancelled << ','
        << r.num_replanned << ',' << r.num_unserved << '\n';
    os_.flush();  // Row-granular durability: a crash keeps finished rows.
  }

 private:
  std::ofstream os_;
};

}  // namespace

double TrainingCurve::TailMean(const std::vector<double>& series,
                               int window) {
  if (series.empty()) return 0.0;
  const size_t n = series.size();
  const size_t w = std::min<size_t>(static_cast<size_t>(window), n);
  double s = 0.0;
  for (size_t i = n - w; i < n; ++i) s += series[i];
  return s / static_cast<double>(w);
}

TrainingCurve RunEpisodes(Environment* env, Dispatcher* dispatcher,
                          const TrainOptions& options) {
  DPDP_CHECK(env != nullptr && dispatcher != nullptr);
  TrainingCurve curve;
  curve.agent_name = dispatcher->name();

  auto* learner = dynamic_cast<Agent*>(dispatcher);
  int start_episode = 0;
  if (!options.resume_from.empty()) {
    // Resuming from a checkpoint that doesn't restore is a correctness
    // hazard (a fresh agent would silently masquerade as a trained one),
    // so fail loudly instead of falling back.
    DPDP_CHECK(learner != nullptr);
    Result<int> resumed = LoadCheckpoint(options.resume_from, learner);
    if (!resumed.ok()) {
      DPDP_LOG(ERROR) << "cannot resume from " << options.resume_from << ": "
                      << resumed.status().ToString();
      DPDP_CHECK(resumed.ok());
    }
    start_episode = resumed.value();
    // Align the environment's episode counter so the remaining episodes
    // draw the same disruption streams an uninterrupted run would have.
    env->set_episodes_run(start_episode);
  }

  const bool checkpointing =
      options.checkpoint_every > 0 && learner != nullptr;
  const std::string ckpt_path =
      checkpointing ? options.checkpoint_path(curve.agent_name)
                    : std::string();
  EpisodeMetricsWriter metrics_writer(options.resolved_metrics_path());

  for (int e = start_episode; e < options.episodes; ++e) {
    DPDP_TRACE_SPAN("rl.train_episode");
    const EpisodeResult result = RunEpisode(env, dispatcher);
    curve.nuv.push_back(result.nuv);
    curve.total_cost.push_back(result.total_cost);
    if (!options.demand_for_diff.empty()) {
      curve.capacity_diff.push_back(DistributionDiff(
          options.demand_for_diff, env->LastCapacityDistribution()));
    }
    curve.episodes.push_back(result);
    metrics_writer.WriteRow(e, result,
                            learner != nullptr ? learner->Stats()
                                               : TrainingStats{});
    if (options.on_episode) options.on_episode(e, result);
    if (checkpointing && ((e + 1 - start_episode) % options.checkpoint_every ==
                              0 ||
                          e + 1 == options.episodes)) {
      const Status saved = SaveCheckpoint(ckpt_path, e + 1, *learner);
      if (!saved.ok()) {
        // A failed periodic save must not kill training — warn and go on;
        // the next interval retries.
        DPDP_LOG(WARN) << "checkpoint save failed: " << saved.ToString();
      }
    }
  }
  return curve;
}

}  // namespace dpdp
