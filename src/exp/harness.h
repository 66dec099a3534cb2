#ifndef DPDP_EXP_HARNESS_H_
#define DPDP_EXP_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "datagen/dataset.h"
#include "model/instance.h"
#include "nn/matrix.h"
#include "rl/agent.h"
#include "rl/trainer.h"
#include "sim/environment.h"
#include "util/env.h"
#include "util/retry.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dpdp {

/// The standard experiment "world": the paper's campus (27 factories),
/// vehicle economics, and the synthetic order pool. `mean_orders_per_day`
/// and window tightness vary per experiment scale.
DpdpDataset::Config StandardDatasetConfig(uint64_t seed,
                                          double mean_orders_per_day,
                                          double min_window_slack_min = 45.0,
                                          double max_window_slack_min = 150.0);

/// Builds a DRL agent by its paper name: "DQN", "AC", "DDQN", "ST-DDQN",
/// "DGN", "DDGN" or "ST-DDGN". Aborts on unknown names.
std::unique_ptr<Agent> MakeAgentByName(const std::string& method,
                                       uint64_t seed);

/// Names of the four comparison DRL methods of Table I / Figs. 6-7.
const std::vector<std::string>& ComparisonDrlMethods();

/// Names of the four ablation models of Table II / Fig. 8.
const std::vector<std::string>& AblationModels();

/// One train-then-evaluate run of a DRL method on an instance.
struct DrlOutcome {
  std::string method;
  EpisodeResult eval;           ///< Greedy evaluation after training.
  TrainingCurve curve;          ///< Per-episode training metrics.
  double train_seconds = 0.0;
  double eval_decision_seconds = 0.0;  ///< Pure inference wall time.
};

/// Trains `method` for `episodes` on `instance` (ST Score computed from
/// `predicted_std` when non-empty) and evaluates the greedy policy once.
/// `base_sim_config`, when non-null, seeds the simulator configuration
/// (fault injection, buffering, ...); its predicted_std is overwritten by
/// the `predicted_std` argument.
DrlOutcome TrainEvalOnInstance(const Instance& instance,
                               const nn::Matrix& predicted_std,
                               const std::string& method, uint64_t seed,
                               int episodes,
                               const SimulatorConfig* base_sim_config =
                                   nullptr);

/// Aggregate of repeated runs (the paper repeats DRL training five times
/// per instance to smooth seed variance).
struct MethodSummary {
  /// A seed run that failed permanently (after retries) and was skipped.
  struct SeedError {
    int seed_index = -1;
    std::string message;
  };

  /// Observability rollup across every episode that contributed to this
  /// summary (training + evaluation, successful seeds only). Cross-checks
  /// the global metrics registry: e.g. `decisions` here must equal the
  /// delta of the `sim.decisions` counter over the sweep.
  struct MetricsRollup {
    int64_t episodes = 0;
    int64_t decisions = 0;
    int64_t degraded_decisions = 0;
    int64_t breakdowns = 0;
    int64_t cancellations = 0;
    int64_t replanned = 0;
    double decision_seconds = 0.0;

    void Absorb(const EpisodeResult& r) {
      ++episodes;
      decisions += r.num_decisions;
      degraded_decisions += r.num_degraded_decisions;
      breakdowns += r.num_breakdowns;
      cancellations += r.num_cancelled;
      replanned += r.num_replanned;
      decision_seconds += r.decision_wall_seconds;
    }
    void Absorb(const MetricsRollup& other) {
      episodes += other.episodes;
      decisions += other.decisions;
      degraded_decisions += other.degraded_decisions;
      breakdowns += other.breakdowns;
      cancellations += other.cancellations;
      replanned += other.replanned;
      decision_seconds += other.decision_seconds;
    }
  };

  std::string method;
  std::vector<double> nuv;
  std::vector<double> tc;
  std::vector<double> wall;  ///< Decision/inference seconds per run.
  MetricsRollup metrics;     ///< Aggregated episode telemetry.
  /// Seeds excluded from the statistics (RunDrlMethod retry gave up);
  /// empty on a fully healthy sweep.
  std::vector<SeedError> seed_errors;

  double nuv_mean() const { return Mean(nuv); }
  double nuv_std() const { return Stddev(nuv); }
  double tc_mean() const { return Mean(tc); }
  double tc_std() const { return Stddev(tc); }
  double wall_mean() const { return Mean(wall); }
};

/// Samples `num_orders` orders whose creation times fall inside
/// [t_lo_min, t_hi_min) from the pooled days — the tiny-instance protocol
/// of Table I, where a handful of *concurrent* orders stress the fleet.
Instance SampleInstanceInWindow(DpdpDataset* dataset,
                                const std::string& name, int num_orders,
                                int num_vehicles, int day_lo, int day_hi,
                                double t_lo_min, double t_hi_min,
                                uint64_t seed);

/// Runs a heuristic baseline once (it is deterministic) on `instance`.
MethodSummary RunBaseline(const Instance& instance, Dispatcher* baseline,
                          const nn::Matrix& predicted_std = nn::Matrix());

/// Trains + evaluates a DRL method across `num_seeds` independent runs.
/// Run s uses seed Rng::DeriveSeed(seed_base, s), so every run has its
/// own named RNG sub-stream. The runs execute in parallel on `pool`
/// (the process-wide DPDP_THREADS-sized pool when null); because each
/// run is self-contained (own Environment, own agent, read-only instance
/// and predicted STD) the nuv/tc results are bit-identical for every
/// worker count — only the wall-time column varies.
///
/// Fault tolerance: each seed task runs under capped exponential backoff
/// (util/retry.h). Transient failures (uncaught exceptions, resource
/// exhaustion) are retried; a seed that fails permanently is recorded in
/// MethodSummary::seed_errors and skipped instead of sinking the sweep.
/// `base_sim_config` is forwarded to TrainEvalOnInstance.
MethodSummary RunDrlMethod(const Instance& instance,
                           const nn::Matrix& predicted_std,
                           const std::string& method, int episodes,
                           int num_seeds, uint64_t seed_base,
                           ThreadPool* pool = nullptr,
                           const SimulatorConfig* base_sim_config = nullptr,
                           const RetryPolicy& retry_policy = RetryPolicy());

}  // namespace dpdp

#endif  // DPDP_EXP_HARNESS_H_
