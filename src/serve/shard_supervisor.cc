#include "serve/shard_supervisor.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace dpdp::serve {
namespace {

obs::Counter& ScanCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("serve.supervisor.scans");
  return *counter;
}

}  // namespace

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kStuck:
      return "stuck";
    case ShardHealth::kDead:
      return "dead";
  }
  return "?";
}

ShardSupervisor::ShardSupervisor(const SupervisorConfig& config,
                                 ShardRouter* router)
    : config_(config), router_(router) {
  DPDP_CHECK(router_ != nullptr);
  const int n = router_->num_shards();
  breakers_.reserve(n);
  health_.assign(n, ShardHealth::kHealthy);
  health_gauges_.reserve(n);
  breaker_gauges_.reserve(n);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (int k = 0; k < n; ++k) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(config_.breaker));
    const std::string prefix = "serve.shard" + std::to_string(k);
    health_gauges_.push_back(registry.GetGauge(prefix + ".health"));
    breaker_gauges_.push_back(registry.GetGauge(prefix + ".breaker_state"));
    health_gauges_.back()->Set(0.0);
    breaker_gauges_.back()->Set(0.0);
  }
}

ShardSupervisor::~ShardSupervisor() { Stop(); }

void ShardSupervisor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (watchdog_.joinable()) return;
  stop_requested_ = false;
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

void ShardSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void ShardSupervisor::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    ScanOnceLocked(MonotonicNanos());
    stop_cv_.wait_for(lock,
                      std::chrono::milliseconds(config_.watchdog_period_ms),
                      [this] { return stop_requested_; });
  }
}

void ShardSupervisor::ScanOnce(int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  ScanOnceLocked(now_ns);
}

ShardHealth ShardSupervisor::Probe(int k, int64_t now_ns) const {
  const DispatchService& shard = router_->shard(k);
  if (shard.crashed()) return ShardHealth::kDead;
  const int64_t age_ns = now_ns - shard.heartbeat_ns();
  if (shard.queue_size() > 0 &&
      age_ns > static_cast<int64_t>(config_.stuck_after_ms) * 1000000) {
    return ShardHealth::kStuck;
  }
  return ShardHealth::kHealthy;
}

void ShardSupervisor::FailOver(int k) {
  if (router_->IsTripped(k)) return;
  DPDP_TRACE_SPAN("serve.failover");
  DPDP_LOG(WARN) << "shard " << k << " unhealthy ("
                 << ShardHealthName(health_[k])
                 << "): failing its partition over";
  router_->TripShard(k);
}

bool ShardSupervisor::RestartShard(int k) {
  DPDP_TRACE_SPAN("serve.failover");
  std::vector<DecisionRequest> orphans;
  if (!router_->shard(k).Restart(&orphans)) return false;
  DPDP_LOG(INFO) << "shard " << k << " restarted; rerouting "
                 << orphans.size() << " orphaned request(s)";
  obs::RecordFlight(obs::FlightEventKind::kRestart, "serve.restart", k,
                    orphans.size());
  RerouteOrphans(k, &orphans);
  return true;
}

void ShardSupervisor::RerouteOrphans(int home,
                                     std::vector<DecisionRequest>* orphans) {
  // Orphans were counted at their original admission: re-enqueue without
  // recounting (Readmit), hopping past closed queues like the router does.
  // Zero lost replies is the invariant: every orphan is either admitted
  // somewhere live or answered as a shed right here.
  const int n = router_->num_shards();
  for (DecisionRequest& request : *orphans) {
    int target = router_->RedirectOf(home);
    bool answered = false;
    if (request.trace.active()) {
      // The orphan's lane continues on the supervisor thread: one readmit
      // hop linking its pre-crash hops to wherever it lands next.
      const int64_t now = MonotonicNanos();
      request.trace = obs::RecordHop("serve.hop.readmit", request.trace, now,
                                     now, obs::FlowPhase::kStep);
    }
    for (int hop = 0; hop < n; ++hop) {
      DispatchService& shard = router_->shard(target);
      const PushResult result = shard.Readmit(&request);
      if (result == PushResult::kAdmitted) {
        if (target != home) router_->shard(home).CountReroute();
        answered = true;
        break;
      }
      if (result == PushResult::kFull) {
        shard.AnswerShed(&request, /*closed_reject=*/false);
        answered = true;
        break;
      }
      target = (target + 1) % n;
    }
    if (!answered) {
      router_->shard(home).AnswerShed(&request, /*closed_reject=*/true);
    }
  }
  orphans->clear();
}

void ShardSupervisor::ScanOnceLocked(int64_t now_ns) {
  ++scans_;
  ScanCounter().Add();
  const int n = router_->num_shards();
  for (int k = 0; k < n; ++k) {
    const ShardHealth prev = health_[k];
    ShardHealth verdict = Probe(k, now_ns);
    CircuitBreaker& breaker = *breakers_[k];
    switch (verdict) {
      case ShardHealth::kDead: {
        health_[k] = verdict;
        // A crash is one failure event — the edge into dead, not the dead
        // state persisting across scans while the breaker backs off.
        if (prev != ShardHealth::kDead) {
          breaker.RecordFailure(now_ns);
          // The black-box moment: capture the recent-event rings exactly
          // once per death, before failover/restart overwrite them.
          obs::FlightRecorderAutoDump("shard_dead");
        }
        FailOver(k);
        // Restart gated by the breaker: closed (under threshold) restarts
        // now; half-open means the backoff elapsed and this restart IS the
        // probe; open keeps the shard down until the backoff ends.
        if (breaker.StateAt(now_ns) != BreakerState::kOpen) {
          if (RestartShard(k)) {
            router_->RestoreShard(k);
            verdict = ShardHealth::kHealthy;  // Back up, map restored.
            health_[k] = verdict;
          }
        }
        break;
      }
      case ShardHealth::kStuck: {
        health_[k] = verdict;
        // A stall is level-triggered: every stuck scan is a failure, so a
        // persistent wedge walks the breaker to its threshold and trips
        // the partition over; a blip under the threshold changes nothing.
        breaker.RecordFailure(now_ns);
        if (breaker.StateAt(now_ns) == BreakerState::kOpen) FailOver(k);
        break;
      }
      case ShardHealth::kHealthy: {
        health_[k] = verdict;
        // Closes the breaker from half-open, resets the failure streak.
        breaker.RecordSuccess(now_ns);
        if (router_->IsTripped(k) &&
            breaker.StateAt(now_ns) == BreakerState::kClosed &&
            !router_->shard(k).crashed()) {
          DPDP_TRACE_SPAN("serve.failover");
          DPDP_LOG(INFO) << "shard " << k
                         << " healthy again: restoring its partition";
          router_->RestoreShard(k);
        }
        break;
      }
    }
    health_gauges_[k]->Set(static_cast<double>(verdict));
    const double breaker_state = static_cast<double>(breaker.StateAt(now_ns));
    if (breaker_state != breaker_gauges_[k]->Value()) {
      obs::RecordFlight(obs::FlightEventKind::kBreaker, "serve.breaker", k,
                        static_cast<uint64_t>(breaker_state));
    }
    breaker_gauges_[k]->Set(breaker_state);
  }
}

ShardHealth ShardSupervisor::health(int k) const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_[k];
}

}  // namespace dpdp::serve
