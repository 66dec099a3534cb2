#ifndef DPDP_SERVE_MODEL_SERVER_H_
#define DPDP_SERVE_MODEL_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/matrix.h"
#include "rl/config.h"
#include "util/status.h"

namespace dpdp::serve {

/// An immutable, refcount-retired policy snapshot. Once published it is
/// never written again: in-flight batches keep their shared_ptr and finish
/// on the weights they started with, and the old snapshot's storage is
/// freed when the last holder drops it — hot-swap without pausing.
struct ModelSnapshot {
  uint64_t seq = 0;       ///< Publication order; strictly increasing.
  int episodes_done = 0;  ///< Training progress recorded in the source.
  std::string source;     ///< Checkpoint path, or "init" for the seed.
  std::vector<nn::Matrix> weights;  ///< Params() order of MakeQNetwork.
};

/// Owns the current ModelSnapshot and the checkpoint-directory watcher
/// that refreshes it.
///
/// Construction publishes snapshot seq 0 with the deterministic weight
/// init of `config` — identical to a freshly constructed DqnFleetAgent
/// with the same config, so a service running on the init snapshot emits
/// exactly the decisions of local agents built from that config.
///
/// The watcher polls a directory of `*.ckpt` files and publishes any file
/// whose footer seq is strictly newer than the current snapshot's.
/// Staleness and integrity are judged by the checkpoint footer (seq +
/// CRC), never by mtime: a torn or partially renamed file fails its CRC
/// and is skipped, an old file re-appearing (copy, restore) has a smaller
/// seq and is skipped, and the `.tmp` staging files of an in-progress
/// atomic save are never considered at all.
///
/// Quarantine: a file that fails its probe is retried on later polls (it
/// may be a writer race that resolves), but only kQuarantineProbeLimit
/// times. A file still failing then is persistently corrupt, and
/// re-reading it every poll is wasted I/O forever — it is quarantined:
/// renamed to `<path>.bad` (out of the watcher's glob), or skip-listed in
/// memory when the rename fails (read-only directory). Either way it is
/// counted once in serve.ckpt_rejected. A quarantined path is probed
/// again only if its size or mtime changes (a writer replaced it).
class ModelServer {
 public:
  explicit ModelServer(const AgentConfig& config);
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// The current snapshot; never null. Callers hold the shared_ptr for as
  /// long as they use the weights.
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Publishes `snapshot` if it is strictly newer than the current one.
  /// Returns true when it became current.
  bool Publish(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Validates `path` (CRC + seq via ReadCheckpointInfo), restores it into
  /// a scratch agent, and publishes the extracted policy weights. A stale
  /// seq yields OK without publishing (the caller polled an old file, not
  /// an error).
  Status LoadCheckpointFile(const std::string& path);

  /// One watcher sweep over `model_dir`: every *.ckpt file is probed and
  /// the newest valid one (by footer seq) is loaded if it beats the
  /// current snapshot. Invalid files are counted and skipped. Returns the
  /// number of snapshots published (0 or 1).
  int PollOnce(const std::string& model_dir);

  /// Starts the background watcher over `model_dir` (non-empty), polling
  /// every `poll_ms` (>= 1) milliseconds. No-op while already watching.
  void StartWatcher(const std::string& model_dir, int poll_ms);

  /// Stops and joins the watcher thread. Safe to call repeatedly.
  void StopWatcher();

  const AgentConfig& config() const { return config_; }
  uint64_t current_seq() const { return Current()->seq; }

  /// Consecutive probe failures before a checkpoint file is quarantined.
  static constexpr int kQuarantineProbeLimit = 3;

  /// True while `path` is on the in-memory skip-list (rename-failed
  /// quarantine). Renamed-away files are not listed — they are gone.
  bool IsQuarantined(const std::string& path) const;

 private:
  /// Probe-failure history of one checkpoint path. size/mtime fingerprint
  /// the file content cheaply: any change resets the failure streak (the
  /// writer replaced the file; give the new content a fresh chance).
  struct ProbeFailures {
    int failures = 0;
    std::uintmax_t size = 0;
    int64_t mtime = 0;
    bool quarantined = false;  ///< Skip-listed (rename to .bad failed).
  };

  /// Returns true when `path` should be skipped without probing.
  bool ShouldSkipQuarantined(const std::string& path, std::uintmax_t size,
                             int64_t mtime);
  /// Records a failed probe; quarantines the path at the limit.
  void RecordProbeFailure(const std::string& path, std::uintmax_t size,
                          int64_t mtime);

  const AgentConfig config_;

  mutable std::mutex quarantine_mu_;
  std::map<std::string, ProbeFailures> probe_failures_;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;

  std::mutex watcher_mu_;  ///< Guards watcher lifecycle + stop flag.
  std::condition_variable watcher_cv_;
  std::thread watcher_;
  bool watcher_stop_ = false;
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_MODEL_SERVER_H_
