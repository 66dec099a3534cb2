#ifndef DPDP_RL_STATE_H_
#define DPDP_RL_STATE_H_

#include <cstdint>
#include <vector>

#include "nn/attention.h"
#include "nn/matrix.h"
#include "rl/config.h"
#include "rl/q_network.h"
#include "sim/dispatcher.h"

namespace dpdp {

/// Number of per-vehicle state features. The paper's route-centric MDP
/// state is (d, d', xi, f, t); we additionally expose the incremental
/// length Delta d = d' - d as an explicit sixth feature (it is derivable
/// from the first two but numerically tiny relative to them, and spelling
/// it out materially improves value-function fitting — see DESIGN.md).
inline constexpr int kStateFeatures = 6;

/// The joint MDP state S_t^i in tensor form: one feature row per vehicle
/// (K x kStateFeatures), the feasibility flags from constraint embedding,
/// and vehicle planar positions (K x 2) for the Euclidean nearest-neighbor
/// graph.
struct FleetState {
  nn::Matrix features;          ///< (K x kStateFeatures), normalized.
  std::vector<uint8_t> feasible;  ///< Size K; 1 when the vehicle may serve.
  nn::Matrix positions;         ///< (K x 2) km coordinates.

  int num_vehicles() const { return features.rows(); }
  int NumFeasible() const;

  /// Row indices of feasible vehicles in ascending order.
  std::vector<int> FeasibleIndices() const;
};

/// Builds the joint state from a dispatch context. Features of feasible
/// vehicles are (d/L, d'/L, xi, f, t/T) with L = config.length_norm_km;
/// when config.use_st_score is false the xi entry is zeroed. Infeasible
/// rows carry the paper's -1 sentinels (they never reach the network).
FleetState BuildFleetState(const DispatchContext& context,
                           const AgentConfig& config);

/// Appends the sub-fleet selection `idx` of `state` as one item of `batch`
/// (features written in place; when `use_graph`, the item's
/// `num_neighbors`-nearest neighbor lists are appended to the batch's
/// graph). Returns the item index.
int AppendSubFleetInputs(const FleetState& state, const std::vector<int>& idx,
                         bool use_graph, int num_neighbors,
                         DecisionBatch* batch);

/// The per-decision instant reward r_t of Eq. (6) for executing `chosen`:
/// the negated, alpha-scaled marginal cost (fixed cost when a fresh
/// vehicle is opened — or, with config.literal_used_flag_cost, the
/// paper's literal mu * f — plus cost-per-km times the incremental route
/// length). Shared by every agent role that records experience: the local
/// learning agents and the actor-side rollout path in src/train/.
double InstantReward(const DispatchContext& context, int chosen,
                     const AgentConfig& config);

/// Vehicle rows the network scores for `state`: the feasible sub-fleet
/// under constraint embedding, the whole fleet otherwise. Shared by the
/// learning agents and the serving layer so both score exactly the same
/// rows (a precondition for served decisions being bit-identical to local
/// agent decisions).
std::vector<int> InferenceIndices(const FleetState& state,
                                  const AgentConfig& config);

/// The greedy choice over a Q column restricted to feasible vehicles.
struct GreedyQChoice {
  int vehicle = -1;  ///< -1 when a feasible entry scored non-finite.
  double q = 0.0;    ///< Q of `vehicle`; meaningless when vehicle < 0.
};

/// Argmax of q(q_offset + i, 0) over the entries i of `idx` whose vehicle
/// is feasible, with the exact tie/guard semantics of the decision path:
/// strict > comparison (first best wins ties) and a whole-decision refusal
/// (vehicle = -1) the moment any feasible entry is non-finite, so a
/// poisoned network degrades to the caller's greedy fallback instead of
/// argmax comparing garbage. `q_offset` is the item's row offset within a
/// stacked DecisionBatch evaluation (0 for a single-item evaluation).
GreedyQChoice ArgmaxFeasibleQ(const FleetState& state,
                              const std::vector<int>& idx,
                              const nn::Matrix& q, int q_offset = 0);

/// Appends the neighbor lists of the M vehicles at `positions` (M x 2) to
/// `out` as M rows: row i lists i itself and its `k` nearest other
/// vehicles by Euclidean distance (equal distances go to the lower index),
/// in ascending order, with every column shifted by `offset` (the item's
/// first row within a stacked batch). k <= 0 leaves only the self loops;
/// k >= M - 1 connects every pair. Positions must be finite.
///
/// Vehicles that share a position (a site, e.g. the idle ones at a depot)
/// are searched once per site: one squared distance per pair of sites
/// visited, then each row merges its site mates (distance 0) with its
/// site's nearest outside rows. The lists are bit-identical to ranking
/// every other row by (squared distance, index); with all positions
/// distinct the work is at most that of the all-pairs ranking.
void AppendNeighbors(const nn::Matrix& positions, int k, int offset,
                     nn::Neighbors* out);

}  // namespace dpdp

#endif  // DPDP_RL_STATE_H_
