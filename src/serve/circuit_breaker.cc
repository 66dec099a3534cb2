#include "serve/circuit_breaker.h"

#include "util/env.h"

namespace dpdp::serve {

BreakerConfig BreakerConfigFromEnv() {
  BreakerConfig config;
  config.failure_threshold = EnvIntStrict(
      "DPDP_SERVE_BREAKER_THRESHOLD", config.failure_threshold, 1, 1000000);
  config.backoff.initial_backoff_ms =
      EnvIntStrict("DPDP_SERVE_BREAKER_BACKOFF_MS",
                   config.backoff.initial_backoff_ms, 0, 3600000);
  config.backoff.backoff_multiplier =
      EnvDoubleStrict("DPDP_SERVE_BREAKER_BACKOFF_MULT",
                      config.backoff.backoff_multiplier, 1.0, 1000.0);
  config.backoff.max_backoff_ms =
      EnvIntStrict("DPDP_SERVE_BREAKER_BACKOFF_MAX_MS",
                   config.backoff.max_backoff_ms, 0, 3600000);
  return config;
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(const BreakerConfig& config)
    : config_(config) {}

BreakerState CircuitBreaker::StateAt(int64_t now_ns) {
  if (state_ == BreakerState::kOpen && now_ns >= open_until_ns_) {
    state_ = BreakerState::kHalfOpen;
  }
  return state_;
}

void CircuitBreaker::Open(int64_t now_ns) {
  state_ = BreakerState::kOpen;
  current_backoff_ms_ = BackoffDelayMs(config_.backoff, open_period_);
  open_until_ns_ = now_ns + static_cast<int64_t>(current_backoff_ms_) * 1000000;
  ++open_period_;  // The next re-open (from half-open) backs off longer.
}

void CircuitBreaker::RecordFailure(int64_t now_ns) {
  switch (StateAt(now_ns)) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) {
        ++trips_;
        Open(now_ns);
      }
      break;
    case BreakerState::kHalfOpen:
      // The probe failed: straight back to open, longer backoff (capped).
      Open(now_ns);
      break;
    case BreakerState::kOpen:
      break;  // Already tripped; failures while open carry no information.
  }
}

void CircuitBreaker::RecordSuccess(int64_t now_ns) {
  const BreakerState state = StateAt(now_ns);
  consecutive_failures_ = 0;
  if (state == BreakerState::kHalfOpen) {
    state_ = BreakerState::kClosed;
    open_period_ = 0;  // A healthy shard earns a fresh backoff schedule.
  }
}

}  // namespace dpdp::serve
