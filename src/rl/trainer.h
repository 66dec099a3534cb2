#ifndef DPDP_RL_TRAINER_H_
#define DPDP_RL_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "nn/matrix.h"
#include "sim/dispatcher.h"
#include "sim/environment.h"

namespace dpdp {

/// Per-episode training curve: the Fig. 8 (NUV, TC) series plus the Fig. 9
/// demand/capacity Frobenius "Diff" when a demand matrix is supplied.
struct TrainingCurve {
  std::string agent_name;
  std::vector<double> nuv;
  std::vector<double> total_cost;
  std::vector<double> capacity_diff;  ///< Empty unless demand provided.
  std::vector<EpisodeResult> episodes;

  /// Mean of the last `window` entries of `series` (convergence summary).
  static double TailMean(const std::vector<double>& series, int window);
};

/// Options for the episode loop.
struct TrainOptions {
  int episodes = 100;
  /// Demand STD matrix for the capacity-diff diagnostic (Fig. 9); leave
  /// empty to skip.
  nn::Matrix demand_for_diff;
  /// Optional progress callback (episode index, result).
  std::function<void(int, const EpisodeResult&)> on_episode;

  /// Crash safety: when > 0 and the dispatcher is an Agent, a
  /// checkpoint is written after every `checkpoint_every` episodes (and
  /// after the last one) to `checkpoint_path()`.
  int checkpoint_every = 0;
  /// Checkpoint file directory; empty falls back to the DPDP_CHECKPOINT_DIR
  /// environment variable, then to "." .
  std::string checkpoint_dir;
  /// When set, training resumes from this checkpoint file: the agent state
  /// is restored, the environment's episode counter is aligned (so disruption
  /// streams match), and the loop starts at the recorded episode. The
  /// curve only contains the episodes run in this call. A missing or
  /// corrupt file aborts loudly rather than silently restarting from
  /// scratch.
  std::string resume_from;

  /// Where checkpoints land: <dir>/<agent name>.ckpt.
  std::string checkpoint_path(const std::string& agent_name) const;
  /// Observability: when DPDP_METRICS_DIR is set, each finished episode
  /// appends one row of training telemetry to <dir>/metrics.csv — NUV/TC,
  /// loss, epsilon, mean/max greedy Q, replay size, decision count/latency
  /// and degradation counters — so convergence plots come from recorded
  /// data instead of ad-hoc prints. The file is truncated per RunEpisodes
  /// call; telemetry failures log a warning and never abort training. An
  /// empty string (the variable unset) disables the time series.
  std::string resolved_metrics_path() const;
};

/// Runs `options.episodes` episodes of `env` under `dispatcher` (each one
/// RunEpisode; the dispatcher should be in training mode if it learns) and
/// records the per-episode metrics. With checkpointing enabled, kill +
/// resume reproduces the uninterrupted run bit-for-bit.
TrainingCurve RunEpisodes(Environment* env, Dispatcher* dispatcher,
                          const TrainOptions& options);

}  // namespace dpdp

#endif  // DPDP_RL_TRAINER_H_
