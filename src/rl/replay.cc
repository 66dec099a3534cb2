#include "rl/replay.h"

#include <istream>
#include <ostream>
#include <utility>

#include "util/binary_io.h"

namespace dpdp {
namespace {

template <typename T>
void WriteVec(std::ostream* os, const std::vector<T>& v) {
  WritePod(os, static_cast<uint64_t>(v.size()));
  os->write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(sizeof(T) * v.size()));
}

template <typename T>
bool ReadVec(std::istream* is, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadPod(is, &n)) return false;
  // Sanity cap: no stored fleet in this project comes close to 2^24 floats;
  // a larger count means the stream is corrupt.
  if (n > (1ull << 24)) return false;
  v->resize(n);
  is->read(reinterpret_cast<char*>(v->data()),
           static_cast<std::streamsize>(sizeof(T) * v->size()));
  return static_cast<bool>(*is);
}

void WriteStoredState(std::ostream* os, const StoredFleetState& s) {
  WritePod(os, static_cast<int32_t>(s.num_vehicles));
  WriteVec(os, s.features);
  WriteVec(os, s.feasible);
  WriteVec(os, s.positions);
}

bool ReadStoredState(std::istream* is, StoredFleetState* s) {
  int32_t nv = 0;
  if (!ReadPod(is, &nv) || nv < 0) return false;
  s->num_vehicles = nv;
  return ReadVec(is, &s->features) && ReadVec(is, &s->feasible) &&
         ReadVec(is, &s->positions);
}

}  // namespace

StoredFleetState StoredFleetState::FromFleetState(const FleetState& s) {
  StoredFleetState out;
  out.num_vehicles = s.num_vehicles();
  out.features.resize(static_cast<size_t>(out.num_vehicles) *
                      kStateFeatures);
  out.positions.resize(static_cast<size_t>(out.num_vehicles) * 2);
  out.feasible = s.feasible;
  for (int v = 0; v < out.num_vehicles; ++v) {
    for (int c = 0; c < kStateFeatures; ++c) {
      out.features[static_cast<size_t>(v) * kStateFeatures + c] =
          static_cast<float>(s.features(v, c));
    }
    out.positions[static_cast<size_t>(v) * 2] =
        static_cast<float>(s.positions(v, 0));
    out.positions[static_cast<size_t>(v) * 2 + 1] =
        static_cast<float>(s.positions(v, 1));
  }
  return out;
}

FleetState StoredFleetState::ToFleetState() const {
  FleetState s;
  s.features = nn::Matrix(num_vehicles, kStateFeatures);
  s.positions = nn::Matrix(num_vehicles, 2);
  s.feasible = feasible;
  for (int v = 0; v < num_vehicles; ++v) {
    for (int c = 0; c < kStateFeatures; ++c) {
      s.features(v, c) =
          features[static_cast<size_t>(v) * kStateFeatures + c];
    }
    s.positions(v, 0) = positions[static_cast<size_t>(v) * 2];
    s.positions(v, 1) = positions[static_cast<size_t>(v) * 2 + 1];
  }
  return s;
}

std::vector<Transition> FoldEpisodeRewards(std::vector<EpisodeStep> steps) {
  std::vector<Transition> out;
  if (steps.empty()) return out;
  // Long-term reward (Eq. 7): the episode-mean instant reward, folded into
  // every transition (Eq. 8).
  double mean_reward = 0.0;
  for (const EpisodeStep& s : steps) mean_reward += s.instant_reward;
  mean_reward /= static_cast<double>(steps.size());
  out.reserve(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    Transition t;
    t.action = steps[i].action;
    t.reward = static_cast<float>(steps[i].instant_reward + mean_reward);
    t.terminal = i + 1 == steps.size();
    if (!t.terminal) t.next_state = steps[i + 1].state;
    // Step i's state was already copied out as step i-1's next_state.
    t.state = std::move(steps[i].state);
    out.push_back(std::move(t));
  }
  return out;
}

void EpisodeRecorder::Record(const FleetState& state) {
  DPDP_CHECK(!open_);  // Every recorded decision is observed first.
  steps_.emplace_back().state = StoredFleetState::FromFleetState(state);
  open_ = true;
}

void EpisodeRecorder::Observe(const DispatchContext& context, int vehicle,
                              const AgentConfig& config) {
  if (!open_) return;
  open_ = false;
  EpisodeStep& step = steps_.back();
  step.action = vehicle;
  step.instant_reward = InstantReward(context, vehicle, config);
}

std::vector<EpisodeStep> EpisodeRecorder::TakeSteps() {
  DPDP_CHECK(!open_);
  return std::exchange(steps_, {});
}

ReplayBuffer::ReplayBuffer(int capacity) : capacity_(capacity) {
  DPDP_CHECK(capacity > 0);
  data_.reserve(static_cast<size_t>(capacity));
}

void ReplayBuffer::Add(Transition t) {
  if (size() < capacity_) {
    data_.push_back(std::move(t));
  } else {
    data_[write_pos_] = std::move(t);
  }
  write_pos_ = (write_pos_ + 1) % static_cast<size_t>(capacity_);
}

std::vector<const Transition*> ReplayBuffer::Sample(int n, Rng* rng) const {
  DPDP_CHECK(size() > 0);
  std::vector<const Transition*> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(&data_[static_cast<size_t>(rng->UniformInt(size()))]);
  }
  return out;
}

void ReplayBuffer::Save(std::ostream* os) const {
  WritePod(os, static_cast<int32_t>(capacity_));
  WritePod(os, static_cast<uint64_t>(write_pos_));
  WritePod(os, static_cast<uint64_t>(data_.size()));
  for (const Transition& t : data_) {
    WriteStoredState(os, t.state);
    WritePod(os, static_cast<int32_t>(t.action));
    WritePod(os, t.reward);
    WritePod(os, static_cast<uint8_t>(t.terminal ? 1 : 0));
    WriteStoredState(os, t.next_state);
  }
}

bool ReplayBuffer::Load(std::istream* is) {
  int32_t capacity = 0;
  uint64_t write_pos = 0;
  uint64_t n = 0;
  if (!ReadPod(is, &capacity) || !ReadPod(is, &write_pos) ||
      !ReadPod(is, &n)) {
    return false;
  }
  if (capacity != capacity_ || n > static_cast<uint64_t>(capacity) ||
      write_pos >= static_cast<uint64_t>(capacity)) {
    return false;
  }
  std::vector<Transition> data(n);
  for (Transition& t : data) {
    int32_t action = 0;
    uint8_t terminal = 0;
    if (!ReadStoredState(is, &t.state) || !ReadPod(is, &action) ||
        !ReadPod(is, &t.reward) || !ReadPod(is, &terminal) ||
        !ReadStoredState(is, &t.next_state)) {
      return false;
    }
    t.action = action;
    t.terminal = terminal != 0;
  }
  data_ = std::move(data);
  write_pos_ = write_pos;
  return true;
}

}  // namespace dpdp
