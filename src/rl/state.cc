#include "rl/state.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dpdp {

int FleetState::NumFeasible() const {
  int n = 0;
  for (uint8_t f : feasible) n += (f != 0);
  return n;
}

std::vector<int> FleetState::FeasibleIndices() const {
  std::vector<int> out;
  for (size_t i = 0; i < feasible.size(); ++i) {
    if (feasible[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

double InstantReward(const DispatchContext& context, int chosen,
                     const AgentConfig& config) {
  const VehicleOption& opt = context.options[chosen];
  // The chosen vehicle's own profile under a heterogeneous fleet; the
  // shared config (the original behaviour) otherwise.
  const VehicleConfig& cfg = context.instance->vehicle_config_of(chosen);
  // Eq. (6). The paper's text charges mu * f; the evident intent (and the
  // default here) charges the fixed cost when a *fresh* vehicle is used.
  const double fixed_flag = config.literal_used_flag_cost
                               ? (opt.used ? 1.0 : 0.0)
                               : (opt.used ? 0.0 : 1.0);
  return -config.reward_alpha *
         (cfg.fixed_cost * fixed_flag +
          cfg.cost_per_km * opt.incremental_length);
}

FleetState BuildFleetState(const DispatchContext& context,
                           const AgentConfig& config) {
  const int num_vehicles = static_cast<int>(context.options.size());
  FleetState state;
  state.features = nn::Matrix(num_vehicles, kStateFeatures);
  state.feasible.assign(num_vehicles, 0);
  state.positions = nn::Matrix(num_vehicles, 2);

  const double t_norm =
      static_cast<double>(context.time_interval) /
      static_cast<double>(context.instance->num_time_intervals);
  const double len_norm = config.length_norm_km;

  for (int v = 0; v < num_vehicles; ++v) {
    const VehicleOption& opt = context.options[v];
    state.positions(v, 0) = opt.position.first;
    state.positions(v, 1) = opt.position.second;
    if (!opt.feasible) {
      // Algorithm 2's sentinel values for excluded vehicles.
      for (int c = 0; c < kStateFeatures; ++c) state.features(v, c) = -1.0;
      continue;
    }
    state.feasible[v] = 1;
    state.features(v, 0) = opt.current_length / len_norm;
    state.features(v, 1) = opt.new_length / len_norm;
    state.features(v, 2) = config.use_st_score ? opt.st_score : 0.0;
    state.features(v, 3) = opt.used ? 1.0 : 0.0;
    state.features(v, 4) = t_norm;
    // Delta d on its own (finer) scale; see kStateFeatures doc.
    state.features(v, 5) = opt.incremental_length / (0.2 * len_norm);
  }
  return state;
}

int AppendSubFleetInputs(const FleetState& state, const std::vector<int>& idx,
                         bool use_graph, int num_neighbors,
                         DecisionBatch* batch) {
  const int m = static_cast<int>(idx.size());
  const int item = batch->AddItem(m, kStateFeatures);
  const int begin = batch->offset(item);
  nn::Matrix& features = batch->mutable_features();
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < kStateFeatures; ++c) {
      features(begin + r, c) = state.features(idx[r], c);
    }
  }
  if (use_graph) {
    nn::Matrix pos(m, 2);
    for (int r = 0; r < m; ++r) {
      pos(r, 0) = state.positions(idx[r], 0);
      pos(r, 1) = state.positions(idx[r], 1);
    }
    AppendNeighbors(pos, num_neighbors, begin, &batch->mutable_neighbors());
  }
  return item;
}

std::vector<int> InferenceIndices(const FleetState& state,
                                  const AgentConfig& config) {
  if (config.use_constraint_embedding) return state.FeasibleIndices();
  std::vector<int> all(state.num_vehicles());
  for (int v = 0; v < state.num_vehicles(); ++v) all[v] = v;
  return all;
}

GreedyQChoice ArgmaxFeasibleQ(const FleetState& state,
                              const std::vector<int>& idx,
                              const nn::Matrix& q, int q_offset) {
  GreedyQChoice best;
  double best_q = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < idx.size(); ++i) {
    if (!state.feasible[idx[i]]) continue;
    const double qi = q(q_offset + static_cast<int>(i), 0);
    if (!std::isfinite(qi)) return GreedyQChoice{};
    if (qi > best_q) {
      best_q = qi;
      best.vehicle = idx[i];
      best.q = qi;
    }
  }
  return best;
}

void AppendNeighbors(const nn::Matrix& positions, int k, int offset,
                     nn::Neighbors* out) {
  DPDP_CHECK(positions.cols() == 2);
  const int m = positions.rows();
  std::vector<std::pair<double, int>> dist;
  dist.reserve(m);
  for (int i = 0; i < m; ++i) {
    const size_t row_begin = out->cols.size();
    out->cols.push_back(offset + i);
    if (k > 0) {
      dist.clear();
      for (int j = 0; j < m; ++j) {
        if (j == i) continue;
        const double dx = positions(i, 0) - positions(j, 0);
        const double dy = positions(i, 1) - positions(j, 1);
        dist.emplace_back(dx * dx + dy * dy, j);
      }
      const int take = std::min<int>(k, static_cast<int>(dist.size()));
      std::partial_sort(dist.begin(), dist.begin() + take, dist.end());
      for (int t = 0; t < take; ++t) {
        out->cols.push_back(offset + dist[t].second);
      }
      std::sort(out->cols.begin() + row_begin, out->cols.end());
    }
    out->offsets.push_back(static_cast<int>(out->cols.size()));
  }
}

}  // namespace dpdp
