#ifndef DPDP_SERVE_CHAOS_H_
#define DPDP_SERVE_CHAOS_H_

#include <cstdint>

namespace dpdp::serve {

/// Seeded fault injection for the serving fabric, mirroring the
/// simulator's sim/disruption discipline: every injected fault is a pure
/// function of (seed, shard, tick), where a tick is one service-loop batch
/// iteration. The default config injects nothing, so existing serving
/// paths are bit-for-bit unaffected; a fixed seed replays the same fault
/// schedule (in tick-space) on every run, which is what makes chaos soaks
/// scriptable.
///
/// All probabilities are per (shard, tick). Each fault kind draws from its
/// own sub-stream, so enabling one kind never shifts another kind's draws
/// — exactly the DisruptionConfig contract.
struct ChaosConfig {
  /// Base seed of the chaos stream (independent of model/dataset seeds).
  uint64_t seed = 0;

  /// Service-loop stall: the loop sleeps stall_us after popping a batch,
  /// before answering it — a GC pause / scheduler stall / stop-the-world.
  /// The batch is answered late (possibly past its deadline); the watchdog
  /// sees a stale heartbeat with a backed-up queue.
  double stall_prob = 0.0;
  long stall_us = 20000;

  /// Evaluation slowdown: the loop sleeps slow_us before EvaluateBatch —
  /// a slow inference (cache-cold replica, noisy neighbor). Milder than a
  /// stall; stretches the tail without tripping the watchdog.
  double slow_prob = 0.0;
  long slow_us = 2000;

  /// Hard shard crash: the service loop requeues the batch it just popped
  /// (admitted work is never lost) and exits without closing its queue —
  /// a killed process whose admission queue survives in shared memory.
  /// Only the ShardSupervisor brings the shard back.
  double crash_prob = 0.0;

  /// Corrupt checkpoint publish: chaos-aware checkpoint writers (the
  /// chaos demo's trainer stand-in) truncate the file body of publish k
  /// when CorruptPublishAt(k) — exercising the watcher's CRC rejection and
  /// quarantine path. Drawn from its own (seed, publish index) stream.
  double corrupt_publish_prob = 0.0;

  bool any() const {
    return stall_prob > 0.0 || slow_prob > 0.0 || crash_prob > 0.0 ||
           corrupt_publish_prob > 0.0;
  }
};

/// What chaos does to one (shard, tick) cell. At most one action fires per
/// cell; severity wins when multiple sub-streams trigger (crash > stall >
/// slowdown).
enum class ChaosAction {
  kNone,
  kEvalSlowdown,
  kStall,
  kCrash,
};

/// The seeded fault schedule. Stateless and thread-safe: ActionAt and
/// CorruptPublishAt are pure functions, so N shard loops can share one
/// policy and a test can replay the exact schedule a service saw.
class ChaosPolicy {
 public:
  explicit ChaosPolicy(const ChaosConfig& config) : config_(config) {}

  /// The action injected into shard `shard`'s service loop at batch
  /// iteration `tick`. Pure function of (config.seed, shard, tick).
  ChaosAction ActionAt(int shard, uint64_t tick) const;

  /// True when checkpoint publish number `publish_index` should be written
  /// corrupt. Pure function of (config.seed, publish_index); independent
  /// of the per-shard streams.
  bool CorruptPublishAt(uint64_t publish_index) const;

  const ChaosConfig& config() const { return config_; }

 private:
  const ChaosConfig config_;
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_CHAOS_H_
