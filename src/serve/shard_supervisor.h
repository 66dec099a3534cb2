#ifndef DPDP_SERVE_SHARD_SUPERVISOR_H_
#define DPDP_SERVE_SHARD_SUPERVISOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/circuit_breaker.h"
#include "serve/shard_router.h"

namespace dpdp::serve {

/// Watchdog cadence + health thresholds of the ShardSupervisor.
struct SupervisorConfig {
  /// Watchdog scan period. Detection latency for a dead/stuck shard is at
  /// most one period (plus the stuck threshold below).
  int watchdog_period_ms = 20;
  /// A shard whose service loop has not reached an iteration boundary for
  /// this long WHILE its queue is non-empty is declared stuck. An idle
  /// loop parked on an empty queue has an arbitrarily old heartbeat and is
  /// healthy — staleness only means trouble when there is work waiting.
  int stuck_after_ms = 200;
  /// Per-shard circuit breaker shape (failure threshold + open backoff).
  BreakerConfig breaker;
};

/// Last-scan verdict for one shard. The numeric values are the
/// serve.shard<k>.health gauge encoding.
enum class ShardHealth {
  kHealthy = 0,
  kStuck = 1,  ///< Heartbeat stale with work queued (wedged or stalling).
  kDead = 2,   ///< Service loop crashed (crashed() flag).
};

const char* ShardHealthName(ShardHealth health);

/// The supervised recovery loop over a ShardRouter's shards.
///
/// Each watchdog scan classifies every shard from its health surface
/// (crashed() flag, heartbeat age, queue depth) and drives a per-shard
/// CircuitBreaker:
///
///   - DEAD (crashed loop): each NEW crash (edge, not the dead state
///     persisting) is a breaker failure. The shard is tripped in the
///     router (its partition fails over to a live stand-in) and a restart
///     is attempted, gated by the breaker — crashes under the threshold
///     restart immediately; a crash loop trips the breaker open and
///     further restarts wait out a capped exponential backoff, with the
///     half-open probe BEING the next restart attempt. A successful
///     restart drains the orphaned backlog, re-enqueues every orphan on a
///     live shard (original promise intact — zero lost replies) and
///     restores the original partition map; the breaker closes only once
///     the restarted shard scans healthy.
///   - STUCK (stale heartbeat, non-empty queue): failures accumulate in
///     the breaker; when it trips open the shard's partition is failed
///     over, but the loop is left alone — an in-process thread cannot be
///     killed, and a stall is by nature transient. When the shard scans
///     healthy again and the breaker re-closes (half-open probe), its
///     partition is restored.
///   - HEALTHY: breaker success; a tripped-but-recovered shard is restored
///     once its breaker closes.
///
/// Observability: serve.shard<k>.health and serve.shard<k>.breaker_state
/// gauges updated every scan, a "serve.failover" trace span around every
/// trip/restart/restore action, and serve.supervisor.scans counting scans.
///
/// ScanOnce(now_ns) is public and clock-injected: tests drive the whole
/// recovery loop deterministically with synthetic timestamps, no watchdog
/// thread involved. Start()/Stop() run the same scan off a real clock.
class ShardSupervisor {
 public:
  /// `router` must outlive the supervisor. Does NOT start the watchdog —
  /// call Start(), or drive ScanOnce() by hand.
  ShardSupervisor(const SupervisorConfig& config, ShardRouter* router);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Spawns the watchdog thread (idempotent).
  void Start();
  /// Stops and joins the watchdog (idempotent; destructor calls it).
  /// Stop the supervisor BEFORE stopping the router: a scan racing a
  /// router teardown would restart shards the owner is tearing down.
  void Stop();

  /// One watchdog scan at `now_ns` (monotonic nanos, any origin).
  void ScanOnce(int64_t now_ns);

  /// Last-scan health of shard `k` (kHealthy before the first scan).
  ShardHealth health(int k) const;
  /// The breaker guarding shard `k` (test/introspection surface).
  const CircuitBreaker& breaker(int k) const { return *breakers_[k]; }
  uint64_t scans() const { return scans_; }

  const SupervisorConfig& config() const { return config_; }

 private:
  void ScanOnceLocked(int64_t now_ns);
  /// Classifies shard `k` from its health surface.
  ShardHealth Probe(int k, int64_t now_ns) const;
  /// Trips `k`'s partition over to a stand-in (idempotent, spanned).
  void FailOver(int k);
  /// Joins the dead loop of `k`, reroutes its orphans, restores the map.
  /// Returns true when the shard is back up.
  bool RestartShard(int k);
  /// Re-enqueues restart-drained orphans on live shards, promises intact.
  void RerouteOrphans(int home, std::vector<DecisionRequest>* orphans);
  void WatchdogLoop();

  const SupervisorConfig config_;
  ShardRouter* const router_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<ShardHealth> health_;
  /// Gauges serve.shard<k>.health / serve.shard<k>.breaker_state.
  std::vector<obs::Gauge*> health_gauges_;
  std::vector<obs::Gauge*> breaker_gauges_;
  uint64_t scans_ = 0;

  /// Guards health_/breakers_/scans_ between the watchdog thread and
  /// accessor calls; ScanOnce runs under it.
  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread watchdog_;
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_SHARD_SUPERVISOR_H_
