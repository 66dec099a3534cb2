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

  /// Observability: when non-empty (or when DPDP_METRICS_DIR is set, which
  /// yields <dir>/metrics.csv), each finished episode appends one row of
  /// training telemetry — NUV/TC, loss, epsilon, mean/max greedy Q, replay
  /// size, decision count/latency and degradation counters — so
  /// convergence plots come from recorded data instead of ad-hoc prints.
  /// The file is truncated per RunEpisodes call; telemetry failures log a
  /// warning and never abort training.
  std::string metrics_path;

  /// Where checkpoints land: <dir>/<agent name>.ckpt.
  std::string checkpoint_path(const std::string& agent_name) const;
  /// metrics_path, falling back to $DPDP_METRICS_DIR/metrics.csv; empty
  /// string disables the per-episode metrics time series.
  std::string resolved_metrics_path() const;

  /// Environment-driven options, mirroring ServeConfigFromEnv so every
  /// subsystem's knobs parse through the same layer (see README):
  ///   DPDP_TRAIN_EPISODES          episode count (default 100)
  ///   DPDP_TRAIN_CHECKPOINT_EVERY  checkpoint cadence, 0 = off
  ///   DPDP_TRAIN_CHECKPOINT_DIR    checkpoint directory override
  ///   DPDP_TRAIN_RESUME_FROM       checkpoint file to resume from
  ///   DPDP_TRAIN_METRICS           metrics.csv path override
  static TrainOptions FromEnv();
};

/// Runs `options.episodes` episodes of `env` under `dispatcher` (each one
/// RunEpisode; the dispatcher should be in training mode if it learns) and
/// records the per-episode metrics. With checkpointing enabled, kill +
/// resume reproduces the uninterrupted run bit-for-bit.
TrainingCurve RunEpisodes(Environment* env, Dispatcher* dispatcher,
                          const TrainOptions& options);

}  // namespace dpdp

#endif  // DPDP_RL_TRAINER_H_
