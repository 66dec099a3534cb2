#ifndef DPDP_RL_CONFIG_H_
#define DPDP_RL_CONFIG_H_

#include <cstdint>

#include "stpred/divergence.h"

namespace dpdp {

class ThreadPool;

/// Hyperparameters shared by the DRL dispatchers. Defaults follow the
/// paper's recommended settings scaled to this repo's from-scratch NN
/// substrate (small hidden sizes keep CPU training fast at fleet scale).
struct AgentConfig {
  // --- Model architecture -------------------------------------------------
  /// Per-vehicle encoder/embedding width (also the attention d_model).
  int hidden_dim = 32;
  /// Heads of the multi-head scaled dot-product attention.
  int num_heads = 2;
  /// Stacked neighborhood-attention levels (the paper uses 2).
  int attention_levels = 2;
  /// NE: number of nearest vehicles (by Euclidean distance) attended to.
  int num_neighbors = 8;
  /// Graph relational module on/off (DGN/DDGN vs DQN/DDQN).
  bool use_graph = true;
  /// ST Score state feature on/off (the "ST-" prefix of the model names).
  bool use_st_score = true;
  /// Double-DQN targets (argmax online, value from target) vs vanilla DQN.
  bool double_dqn = true;
  /// Constraint embedding (Sec. IV-C): when true (the paper's design) the
  /// route planner excludes infeasible vehicles *before* inference and the
  /// network scores only the feasible sub-fleet. When false the network
  /// scores the whole fleet (contextual-DQN-style output masking) — same
  /// action set, wasted computation; used by the ablation bench.
  bool use_constraint_embedding = true;

  // --- MDP / reward --------------------------------------------------------
  /// alpha in Eq. (6): scales rewards into a friendly numeric range.
  double reward_alpha = 0.01;
  /// Follow Eq. (6) literally (fixed cost charged when f = 1). The default
  /// implements the evident intent: charge mu when a fresh vehicle is
  /// activated (see DESIGN.md deviation note).
  bool literal_used_flag_cost = false;
  /// Discount factor gamma.
  double gamma = 0.95;
  /// Length normalizer (km) for the d / d' state features.
  double length_norm_km = 50.0;

  // --- Training ------------------------------------------------------------
  double learning_rate = 1e-3;
  double grad_clip_norm = 5.0;
  int replay_capacity = 20000;
  int batch_size = 32;
  /// Mini-batch updates performed at the end of each episode (Algorithm 3
  /// does one; more speeds up wall-clock convergence).
  int updates_per_episode = 8;
  /// When true, the per-episode update count grows with the episode's
  /// transition count (one update per batch_size transitions, at least
  /// updates_per_episode), so industry-scale days with hundreds of orders
  /// get proportionally more gradient steps.
  bool scale_updates_with_episode = true;
  /// Episodes between target-network syncs (the updating period tau).
  int target_sync_episodes = 5;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  /// Episodes over which epsilon decays linearly start -> end.
  int epsilon_decay_episodes = 60;

  /// Snapshot the online weights whenever a (low-epsilon) training episode
  /// achieves the best total cost so far, and restore that snapshot in
  /// FinalizeTraining(). Stabilizes greedy evaluation against the noise of
  /// late exploration.
  bool track_best_weights = true;
  /// Episodes only count as snapshot candidates once epsilon has decayed
  /// to at most this value (otherwise the episode result is mostly noise).
  double best_weights_max_epsilon = 0.25;

  // --- Parallelism ---------------------------------------------------------
  /// Parallel minibatch gradient accumulation: each sampled transition's
  /// forward/backward pass runs on a worker-local clone of the online /
  /// target networks and the per-transition gradients are reduced into
  /// the optimizer in transition order. The fixed reduction order makes
  /// the update bit-identical for every worker count (the clone path
  /// rounds differently from the legacy in-place accumulation, so
  /// flag-on and flag-off runs may differ in the last ulp — each is
  /// individually deterministic). The Make*Config constructors
  /// initialize this from the DPDP_PARALLEL_BATCH environment variable.
  bool parallel_batch = false;
  /// Pool used by parallel_batch; not owned. Null = process-wide pool.
  ThreadPool* batch_pool = nullptr;

  DivergenceKind divergence = DivergenceKind::kJensenShannon;
  uint64_t seed = 17;
};

/// The exploration rate after `episodes` training episodes: a linear decay
/// from epsilon_start to epsilon_end over epsilon_decay_episodes, then
/// flat. The one schedule of both the local agent (evaluated after each
/// Learn) and the Ape-X fabric (evaluated at each global episode index).
double EpsilonAt(const AgentConfig& config, int episodes);

/// Convenience constructors for the ablation grid of Table II.
AgentConfig MakeDqnConfig(uint64_t seed);      ///< DQN: no graph, no ST, single.
AgentConfig MakeDdqnConfig(uint64_t seed);     ///< DDQN: no graph, no ST.
AgentConfig MakeStDdqnConfig(uint64_t seed);   ///< ST-DDQN: ST, no graph.
AgentConfig MakeDgnConfig(uint64_t seed);      ///< DGN: graph, no ST, single.
AgentConfig MakeDdgnConfig(uint64_t seed);     ///< DDGN: graph, no ST.
AgentConfig MakeStDdgnConfig(uint64_t seed);   ///< ST-DDGN: graph + ST.

}  // namespace dpdp

#endif  // DPDP_RL_CONFIG_H_
