#include "train/learner.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binary_io.h"

namespace dpdp::train {
namespace {

/// Version 2 appends the learner's own replay ring; version 1 was followed
/// by the sharded replay layout and is refused.
constexpr char kExtrasMagic[8] = {'D', 'P', 'D', 'P', 'L', 'R', 'N', '2'};

struct LearnerMetrics {
  obs::Counter* steps =
      obs::MetricsRegistry::Global().GetCounter("train.learner_steps");
  obs::Counter* publishes =
      obs::MetricsRegistry::Global().GetCounter("train.publishes");
  obs::Counter* transitions =
      obs::MetricsRegistry::Global().GetCounter("train.transitions");
  obs::Gauge* replay_size =
      obs::MetricsRegistry::Global().GetGauge("train.replay_size");
  obs::Gauge* last_loss =
      obs::MetricsRegistry::Global().GetGauge("train.last_loss");
};

LearnerMetrics& Metrics() {
  static LearnerMetrics* metrics = new LearnerMetrics;
  return *metrics;
}

}  // namespace

Learner::Learner(const AgentConfig& config, serve::ModelServer* models,
                 uint64_t sampler_seed, int target_sync_updates)
    : models_(models),
      target_sync_updates_(target_sync_updates),
      agent_(config, "learner"),
      replay_(config.replay_capacity),
      sampler_(sampler_seed) {
  DPDP_CHECK(models_ != nullptr);
  DPDP_CHECK(target_sync_updates_ >= 1);
}

void Learner::AddEpisode(std::vector<Transition> transitions) {
  Metrics().transitions->Add(transitions.size());
  for (Transition& t : transitions) replay_.Add(std::move(t));
  Metrics().replay_size->Set(static_cast<double>(replay_.size()));
}

int Learner::RunUpdates(int updates, int min_replay) {
  DPDP_TRACE_SPAN("train.learn");
  const int batch_size = agent_.config().batch_size;
  const int floor = std::max(min_replay, batch_size);
  int done = 0;
  for (int u = 0; u < updates; ++u) {
    if (replay_.size() < floor) break;
    agent_.TrainOnBatch(replay_.Sample(batch_size, &sampler_));
    ++updates_;
    ++done;
    if (updates_ % static_cast<uint64_t>(target_sync_updates_) == 0) {
      agent_.SyncTarget();
    }
  }
  if (done > 0) {
    Metrics().steps->Add(done);
    Metrics().last_loss->Set(agent_.last_loss());
  }
  return done;
}

bool Learner::Publish(uint64_t seq, int episodes_done,
                      const std::string& source) {
  auto snapshot = std::make_shared<serve::ModelSnapshot>();
  snapshot->seq = seq;
  snapshot->episodes_done = episodes_done;
  snapshot->source = source;
  snapshot->weights = agent_.ExportPolicyWeights();
  const bool published = models_->Publish(std::move(snapshot));
  if (published) {
    ++publishes_;
    Metrics().publishes->Add(1);
  }
  return published;
}

Status Learner::SaveState(std::ostream* os) const {
  DPDP_CHECK(os != nullptr);
  Status status = agent_.SaveState(os);
  if (!status.ok()) return status;
  os->write(kExtrasMagic, sizeof(kExtrasMagic));
  WriteRngState(os, sampler_.GetState());
  WritePod(os, updates_);
  WritePod(os, publishes_);
  replay_.Save(os);
  if (!*os) return Status::Internal("learner state write failed");
  return Status::OK();
}

Status Learner::LoadState(std::istream* is) {
  DPDP_CHECK(is != nullptr);
  Status status = agent_.LoadState(is);
  if (!status.ok()) return status;
  char magic[sizeof(kExtrasMagic)] = {};
  is->read(magic, sizeof(magic));
  if (!*is || std::memcmp(magic, kExtrasMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("bad learner extras magic");
  }
  Rng::State state;
  uint64_t updates = 0;
  uint64_t publishes = 0;
  if (!ReadRngState(is, &state) || !ReadPod(is, &updates) ||
      !ReadPod(is, &publishes)) {
    return Status::InvalidArgument("truncated learner extras");
  }
  if (!replay_.Load(is)) {
    return Status::InvalidArgument(
        "learner replay malformed or capacity mismatch");
  }
  sampler_.SetState(state);
  updates_ = updates;
  publishes_ = publishes;
  Metrics().replay_size->Set(static_cast<double>(replay_.size()));
  return Status::OK();
}

}  // namespace dpdp::train
