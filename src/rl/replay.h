#ifndef DPDP_RL_REPLAY_H_
#define DPDP_RL_REPLAY_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/matrix.h"
#include "rl/config.h"
#include "rl/state.h"
#include "sim/dispatcher.h"
#include "util/rng.h"

namespace dpdp {

/// Compact (float) storage of a FleetState inside the replay buffer.
struct StoredFleetState {
  int num_vehicles = 0;
  std::vector<float> features;    ///< num_vehicles x kStateFeatures.
  std::vector<uint8_t> feasible;  ///< num_vehicles.
  std::vector<float> positions;   ///< num_vehicles x 2.

  static StoredFleetState FromFleetState(const FleetState& s);
  FleetState ToFleetState() const;
  bool empty() const { return num_vehicles == 0; }
};

/// One MDP transition (S, a, R, S', terminal) with the episode-final reward
/// R = r + r_bar already folded in (Algorithm 3 stores transitions at
/// episode end).
struct Transition {
  StoredFleetState state;
  int action = -1;      ///< Full-fleet vehicle index.
  float reward = 0.0f;
  bool terminal = false;
  StoredFleetState next_state;  ///< Empty when terminal.
};

/// One recorded decision of an in-flight episode, before the episode-end
/// reward folding: the state it was taken in, the executed vehicle and
/// that vehicle's instant reward.
struct EpisodeStep {
  StoredFleetState state;
  int action = -1;
  double instant_reward = 0.0;
};

/// Folds the episode-mean instant reward into every step (Eq. 7/8:
/// R = r + r_bar, applied at episode end per Algorithm 3) and converts the
/// steps into replay-ready transitions, preserving decision order: step
/// i's next_state is step i+1's state, and only the last step is terminal
/// (with an empty next_state).
std::vector<Transition> FoldEpisodeRewards(std::vector<EpisodeStep> steps);

/// Records one episode's decisions for episode-end learning — the one
/// recorder of every experience-producing role (the local learning agents
/// and the src/train/ actor), so all of them store bit-identical steps
/// from the same decisions. Act calls Record with the decision's state;
/// the following Observe stores the vehicle that actually executed (which
/// differs from the chosen one when graceful degradation overrode it) and
/// its InstantReward. A decision that was refused (Act returned -1) is
/// simply not recorded, and its Observe is then a no-op.
class EpisodeRecorder {
 public:
  /// Opens a step for the decision taken in `state`. The previous step
  /// must have been observed.
  void Record(const FleetState& state);
  /// Completes the step opened by the last Record with the executed
  /// `vehicle`; no-op when no step is open.
  void Observe(const DispatchContext& context, int vehicle,
               const AgentConfig& config);

  /// Hands out the episode's steps (all observed) and starts the next
  /// episode.
  std::vector<EpisodeStep> TakeSteps();
  /// FoldEpisodeRewards over TakeSteps().
  std::vector<Transition> Fold() { return FoldEpisodeRewards(TakeSteps()); }

  bool empty() const { return steps_.empty(); }

 private:
  std::vector<EpisodeStep> steps_;
  bool open_ = false;  ///< The last step awaits its Observe.
};

/// Fixed-capacity ring-buffer experience replay with uniform sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(int capacity);

  void Add(Transition t);

  int size() const { return static_cast<int>(data_.size()); }
  int capacity() const { return capacity_; }

  const Transition& at(int i) const { return data_[i]; }

  /// Uniformly samples `n` transitions (with replacement when n > size).
  std::vector<const Transition*> Sample(int n, Rng* rng) const;

  /// Serializes contents + write cursor (binary). Part of the training
  /// checkpoint: resuming with the exact buffer contents is required for
  /// bit-identical kill-and-resume.
  void Save(std::ostream* os) const;

  /// Restores state written by Save. Returns false on malformed input or a
  /// capacity mismatch with this buffer.
  bool Load(std::istream* is);

 private:
  int capacity_;
  size_t write_pos_ = 0;
  std::vector<Transition> data_;
};

}  // namespace dpdp

#endif  // DPDP_RL_REPLAY_H_
