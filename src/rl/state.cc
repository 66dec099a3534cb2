#include "rl/state.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

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

namespace {

using Candidate = std::pair<double, int>;  ///< (squared distance, row).

/// The neighbor order: nearer first, equal squared distances to the lower
/// row.
bool Precedes(double d1, int j1, double d2, int j2) {
  return d1 < d2 || (d1 == d2 && j1 < j2);
}

/// Precedes over candidates, for the heap algorithms.
struct ByNeighborOrder {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return Precedes(a.first, a.second, b.first, b.second);
  }
};

/// Offers (d, j) to `heap`, a max-heap in neighbor order holding the best
/// `cap` candidates seen so far. Returns false when (d, j) misses it.
bool OfferNearest(double d, int j, size_t cap, std::vector<Candidate>* heap) {
  if (heap->size() == cap) {
    if (!Precedes(d, j, heap->front().first, heap->front().second)) {
      return false;
    }
    std::pop_heap(heap->begin(), heap->end(), ByNeighborOrder());
    heap->back() = {d, j};
  } else {
    heap->emplace_back(d, j);
  }
  std::push_heap(heap->begin(), heap->end(), ByNeighborOrder());
  return true;
}

}  // namespace

void AppendNeighbors(const nn::Matrix& positions, int k, int offset,
                     nn::Neighbors* out) {
  DPDP_CHECK(positions.cols() == 2);
  const int m = positions.rows();
  // Every row lists itself and min(k, m - 1) others.
  const int take = std::max(0, std::min(k, m - 1));
  const int row_len = take + 1;
  const size_t base = out->cols.size();
  out->cols.resize(base + static_cast<size_t>(m) * row_len);
  for (int i = 0; i < m; ++i) {
    out->offsets.push_back(static_cast<int>(base) + (i + 1) * row_len);
  }
  if (take == 0) {
    for (int i = 0; i < m; ++i) out->cols[base + i] = offset + i;
    return;
  }

  // Rows sorted by (x, y, index), so the rows at one position (a site,
  // e.g. the idle vehicles at a depot) are contiguous and ascending.
  auto x = [&positions](int i) { return positions(i, 0); };
  auto y = [&positions](int i) { return positions(i, 1); };
  for (int i = 0; i < m; ++i) {
    DPDP_CHECK(std::isfinite(x(i)) && std::isfinite(y(i)));
  }
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (x(a) != x(b)) return x(a) < x(b);
    if (y(a) != y(b)) return y(a) < y(b);
    return a < b;
  });
  std::vector<int> site_begin;  // Site s is order[site_begin[s], [s + 1]).
  site_begin.reserve(m + 1);
  for (int r = 0; r < m; ++r) {
    if (r == 0 || x(order[r]) != x(order[r - 1]) ||
        y(order[r]) != y(order[r - 1])) {
      site_begin.push_back(r);
    }
  }
  site_begin.push_back(m);
  const int num_sites = static_cast<int>(site_begin.size()) - 1;

  std::vector<Candidate> nearest;
  nearest.reserve(take);
  for (int s = 0; s < num_sites; ++s) {
    const int begin = site_begin[s];
    const int end = site_begin[s + 1];
    // The site's `take` nearest rows outside it, in neighbor order. All
    // rows of another site lie at one squared distance from this site,
    // computed from a member of each exactly as the per-row ranking
    // would, and they enter in ascending index until one misses. Sites
    // are visited outward in x order; a side stops once the list is full
    // and the squared x gap alone exceeds its worst distance, since that
    // gap only grows along a side and no squared distance is below it.
    nearest.clear();
    const double sx = x(order[begin]);
    const double sy = y(order[begin]);
    auto offer_site = [&](int t) {
      const double dx = sx - x(order[site_begin[t]]);
      if (nearest.size() == static_cast<size_t>(take) &&
          dx * dx > nearest.front().first) {
        return false;
      }
      const double dy = sy - y(order[site_begin[t]]);
      const double d = dx * dx + dy * dy;
      for (int r = site_begin[t]; r < site_begin[t + 1]; ++r) {
        if (!OfferNearest(d, order[r], take, &nearest)) break;
      }
      return true;
    };
    int left = s - 1;
    int right = s + 1;
    while (left >= 0 || right < num_sites) {
      if (left >= 0 && !offer_site(left--)) left = -1;
      if (right < num_sites && !offer_site(right++)) right = num_sites;
    }
    std::sort_heap(nearest.begin(), nearest.end(), ByNeighborOrder());
    // Each member takes the first `take` of its site mates (distance 0,
    // ascending, itself excluded) merged with `nearest`.
    for (int r = begin; r < end; ++r) {
      const int i = order[r];
      int* row = out->cols.data() + base + static_cast<size_t>(i) * row_len;
      row[0] = i;
      int mate = begin;
      size_t near = 0;
      for (int n = 1; n < row_len; ++n) {
        if (mate < end && order[mate] == i) ++mate;
        const bool from_site =
            mate < end &&
            (near == nearest.size() ||
             Precedes(0.0, order[mate], nearest[near].first,
                      nearest[near].second));
        row[n] = from_site ? order[mate++] : nearest[near++].second;
      }
      std::sort(row, row + row_len);
      for (int n = 0; n < row_len; ++n) row[n] += offset;
    }
  }
}

}  // namespace dpdp
