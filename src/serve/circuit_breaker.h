#ifndef DPDP_SERVE_CIRCUIT_BREAKER_H_
#define DPDP_SERVE_CIRCUIT_BREAKER_H_

#include <cstdint>

#include "util/retry.h"

namespace dpdp::serve {

/// Shape of a per-shard circuit breaker. The open-state backoff reuses
/// RetryPolicy (util/retry) verbatim, so the breaker and the harness-level
/// retry loop speak one capped-exponential-backoff dialect:
/// open period k (0-based since the last fully-closed state) lasts
/// BackoffDelayMs(backoff, k) milliseconds, capped at
/// backoff.max_backoff_ms. RetryPolicy::max_attempts is ignored here — a
/// breaker never gives up, it just backs off at the cap.
struct BreakerConfig {
  /// Consecutive failures that trip a closed breaker open.
  int failure_threshold = 3;
  /// Open-state backoff schedule (initial_backoff_ms, backoff_multiplier,
  /// max_backoff_ms — max_attempts unused).
  RetryPolicy backoff;
};

enum class BreakerState {
  kClosed = 0,    ///< Healthy: traffic flows, failures are counted.
  kOpen = 1,      ///< Tripped: traffic is rerouted until the backoff ends.
  kHalfOpen = 2,  ///< Backoff elapsed: one probe decides close vs re-open.
};

const char* BreakerStateName(BreakerState state);

/// The closed -> open -> half-open state machine guarding one shard.
///
/// Deterministic by construction: the breaker owns no clock and no RNG —
/// every transition is a pure function of the call sequence and the
/// timestamps passed in (monotonic nanos, any origin). That makes it a
/// pure unit under test (drive it with synthetic timestamps) and keeps the
/// supervisor's behavior replayable from a trace.
///
/// Transitions:
///   closed    --failure x threshold-->  open (backoff period k)
///   open      --backoff elapsed------>  half-open   (via StateAt)
///   half-open --success-------------->  closed      (failure streak reset,
///                                                    backoff reset to k=0)
///   half-open --failure-------------->  open (period k+1, capped)
///   closed    --success-------------->  closed      (failure streak reset)
///
/// Not thread-safe: owned and driven by the single supervisor thread.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig& config);

  /// Current state, advancing open -> half-open when the open period has
  /// elapsed by `now_ns`.
  BreakerState StateAt(int64_t now_ns);

  /// Records one health-probe failure at `now_ns`. In closed state,
  /// `failure_threshold` consecutive failures trip the breaker; in
  /// half-open a single failure re-opens it with the next (longer)
  /// backoff; in open state it is a no-op (the shard is already tripped).
  void RecordFailure(int64_t now_ns);

  /// Records one health-probe success. Closes the breaker from half-open
  /// and resets the failure streak and the backoff schedule.
  void RecordSuccess(int64_t now_ns);

  /// Milliseconds of the current/last open period (0 if never opened).
  int current_backoff_ms() const { return current_backoff_ms_; }
  /// Consecutive failures observed in closed state.
  int consecutive_failures() const { return consecutive_failures_; }
  /// Lifetime closed -> open transitions.
  uint64_t trips() const { return trips_; }

  const BreakerConfig& config() const { return config_; }

 private:
  void Open(int64_t now_ns);

  const BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int open_period_ = 0;  ///< k in BackoffDelayMs(backoff, k).
  int current_backoff_ms_ = 0;
  int64_t open_until_ns_ = 0;
  uint64_t trips_ = 0;
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_CIRCUIT_BREAKER_H_
