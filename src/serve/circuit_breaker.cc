#include "serve/circuit_breaker.h"

namespace dpdp::serve {

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
