#include "serve/model_server.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/checkpoint.h"
#include "rl/dqn_agent.h"
#include "util/log.h"

namespace dpdp::serve {
namespace {

struct ModelMetrics {
  obs::Counter* swaps =
      obs::MetricsRegistry::Global().GetCounter("serve.model_swaps");
  obs::Counter* stale_skips =
      obs::MetricsRegistry::Global().GetCounter("serve.model_stale_skips");
  obs::Counter* invalid_skips =
      obs::MetricsRegistry::Global().GetCounter("serve.model_invalid_skips");
  obs::Counter* polls =
      obs::MetricsRegistry::Global().GetCounter("serve.model_polls");
  obs::Counter* ckpt_rejected =
      obs::MetricsRegistry::Global().GetCounter("serve.ckpt_rejected");
  obs::Gauge* seq = obs::MetricsRegistry::Global().GetGauge("serve.model_seq");
};

ModelMetrics& Metrics() {
  static ModelMetrics* metrics = new ModelMetrics;
  return *metrics;
}

}  // namespace

ModelServer::ModelServer(const AgentConfig& config) : config_(config) {
  // Seed snapshot: the deterministic init a local agent with this config
  // would start from. Exported through a scratch agent so this stays in
  // lockstep with DqnFleetAgent's net construction (Fork order included).
  DqnFleetAgent seed_agent(config_, "serve-init");
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->seq = 0;
  snapshot->episodes_done = 0;
  snapshot->source = "init";
  snapshot->weights = seed_agent.ExportPolicyWeights();
  snapshot_ = std::move(snapshot);
  Metrics().seq->Set(0.0);
}

ModelServer::~ModelServer() { StopWatcher(); }

std::shared_ptr<const ModelSnapshot> ModelServer::Current() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool ModelServer::Publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  DPDP_CHECK(snapshot != nullptr);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot->seq <= snapshot_->seq) {
      Metrics().stale_skips->Add();
      return false;
    }
    snapshot_ = std::move(snapshot);
    Metrics().seq->Set(static_cast<double>(snapshot_->seq));
    obs::RecordFlight(obs::FlightEventKind::kPublish, "serve.publish", -1,
                      snapshot_->seq);
  }
  Metrics().swaps->Add();
  return true;
}

Status ModelServer::LoadCheckpointFile(const std::string& path) {
  DPDP_TRACE_SPAN("serve.model_load");
  Result<CheckpointInfo> info = ReadCheckpointInfo(path);
  if (!info.ok()) return info.status();
  if (info.value().seq <= current_seq()) {
    Metrics().stale_skips->Add();
    return Status::OK();  // Stale is a polling outcome, not an error.
  }
  // Full restore into a scratch agent (the payload CRC was already
  // validated; this catches architecture mismatches) and weight export.
  DqnFleetAgent scratch(config_, "serve-loader");
  Result<int> episodes = LoadCheckpoint(path, &scratch);
  if (!episodes.ok()) return episodes.status();
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->seq = info.value().seq;
  snapshot->episodes_done = episodes.value();
  snapshot->source = path;
  snapshot->weights = scratch.ExportPolicyWeights();
  Publish(std::move(snapshot));
  return Status::OK();
}

bool ModelServer::IsQuarantined(const std::string& path) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  const auto it = probe_failures_.find(path);
  return it != probe_failures_.end() && it->second.quarantined;
}

bool ModelServer::ShouldSkipQuarantined(const std::string& path,
                                        std::uintmax_t size, int64_t mtime) {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  const auto it = probe_failures_.find(path);
  if (it == probe_failures_.end() || !it->second.quarantined) return false;
  if (it->second.size == size && it->second.mtime == mtime) return true;
  // The writer replaced the file: lift the quarantine, probe it fresh.
  probe_failures_.erase(it);
  return false;
}

void ModelServer::RecordProbeFailure(const std::string& path,
                                     std::uintmax_t size, int64_t mtime) {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  ProbeFailures& entry = probe_failures_[path];
  if (entry.failures > 0 && (entry.size != size || entry.mtime != mtime)) {
    entry = ProbeFailures{};  // New content: fresh streak.
  }
  entry.size = size;
  entry.mtime = mtime;
  if (++entry.failures < kQuarantineProbeLimit) return;
  // Persistently corrupt: get it out of the poll loop for good. Rename to
  // *.bad (outside the watcher's *.ckpt glob) keeps the bytes around for a
  // post-mortem; if the rename fails (read-only dir), skip-list in memory.
  std::error_code rename_ec;
  std::filesystem::rename(path, path + ".bad", rename_ec);
  DPDP_LOG(WARN) << "serve: checkpoint " << path << " failed "
                 << entry.failures << " probes, quarantined"
                 << (rename_ec ? " (skip-listed; rename failed)"
                               : " (renamed to .bad)");
  Metrics().ckpt_rejected->Add();
  obs::RecordFlight(obs::FlightEventKind::kQuarantine, "serve.quarantine", -1,
                    entry.failures);
  if (rename_ec) {
    entry.quarantined = true;
  } else {
    probe_failures_.erase(path);  // The path no longer exists.
  }
}

int ModelServer::PollOnce(const std::string& model_dir) {
  Metrics().polls->Add();
  const uint64_t have = current_seq();
  std::string best_path;
  uint64_t best_seq = have;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(model_dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec) || ec) continue;
    if (entry.path().extension() != ".ckpt") continue;  // Skips .tmp files.
    const std::string path = entry.path().string();
    std::error_code stat_ec;
    const std::uintmax_t size = entry.file_size(stat_ec);
    const int64_t mtime =
        stat_ec ? 0
                : static_cast<int64_t>(
                      entry.last_write_time(stat_ec).time_since_epoch().count());
    if (ShouldSkipQuarantined(path, size, mtime)) continue;
    Result<CheckpointInfo> info = ReadCheckpointInfo(path);
    if (!info.ok()) {
      // Torn/corrupt/foreign file: count and move on. The CRC footer is
      // what makes mtime irrelevant here. Repeated failures of the SAME
      // bytes quarantine the file so it stops costing a read per poll.
      Metrics().invalid_skips->Add();
      RecordProbeFailure(path, size, mtime);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(quarantine_mu_);
      probe_failures_.erase(path);  // Healthy probe clears the streak.
    }
    if (info.value().seq > best_seq) {
      best_seq = info.value().seq;
      best_path = path;
    }
  }
  if (best_path.empty()) return 0;
  const Status status = LoadCheckpointFile(best_path);
  if (!status.ok()) {
    // Lost a race with a writer or architecture mismatch; next poll
    // retries.
    DPDP_LOG(WARN) << "serve: checkpoint " << best_path
                   << " rejected: " << status.message();
    Metrics().invalid_skips->Add();
    return 0;
  }
  return current_seq() > have ? 1 : 0;
}

void ModelServer::StartWatcher(const std::string& model_dir, int poll_ms) {
  DPDP_CHECK(!model_dir.empty());
  DPDP_CHECK(poll_ms >= 1);
  std::lock_guard<std::mutex> lock(watcher_mu_);
  if (watcher_.joinable()) return;  // Already watching.
  watcher_stop_ = false;
  watcher_ = std::thread([this, dir = model_dir, poll_ms] {
    std::unique_lock<std::mutex> lock(watcher_mu_);
    while (!watcher_stop_) {
      lock.unlock();
      PollOnce(dir);
      lock.lock();
      watcher_cv_.wait_for(lock, std::chrono::milliseconds(poll_ms),
                           [&] { return watcher_stop_; });
    }
  });
}

void ModelServer::StopWatcher() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(watcher_mu_);
    watcher_stop_ = true;
    worker = std::move(watcher_);
  }
  watcher_cv_.notify_all();
  if (worker.joinable()) worker.join();
}

}  // namespace dpdp::serve
