#include "serve/shard_router.h"

#include <chrono>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace dpdp::serve {
namespace {

/// Enqueue -> admitted-elsewhere latency of rerouted requests (failover
/// overlay or closed-queue hops). Recorded only when a reroute actually
/// happens, so the home-shard fast path pays nothing.
obs::Histogram& RerouteLatency() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "serve.reroute_latency_s", obs::LatencyBucketsSeconds());
  return *histogram;
}

int64_t ToNanos(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

uint64_t CampusHash(std::string_view campus_name) {
  // FNV-1a 64: tiny, allocation-free, and stable across platforms — the
  // campus -> shard partition is part of the fabric's observable contract.
  uint64_t h = 14695981039346656037ull;
  for (const char c : campus_name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

ShardRouter::ShardRouter(const ShardedServeConfig& config, ModelServer* models)
    : config_(config) {
  DPDP_CHECK(config_.num_shards >= 1);
  DPDP_CHECK(models != nullptr);
  shards_.reserve(config_.num_shards);
  for (int k = 0; k < config_.num_shards; ++k) {
    shards_.push_back(std::make_unique<DispatchService>(config_.shard, models,
                                                        ShardTag{k}));
  }
  tripped_.assign(config_.num_shards, false);
  obs::MetricsRegistry::Global()
      .GetGauge("serve.shards")
      ->Set(static_cast<double>(config_.num_shards));
}

ShardRouter::~ShardRouter() { Stop(); }

int ShardRouter::ShardOfCampus(std::string_view campus_name) const {
  return static_cast<int>(CampusHash(campus_name) %
                          static_cast<uint64_t>(shards_.size()));
}

int ShardRouter::ShardOf(const DispatchContext& context) {
  if (config_.policy == RouterPolicy::kRoundRobin) {
    return static_cast<int>(
        round_robin_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint64_t>(shards_.size()));
  }
  DPDP_CHECK(context.instance != nullptr);
  return ShardOfCampus(context.instance->name);
}

std::shared_ptr<const ShardRouter::Overlay> ShardRouter::CurrentOverlay()
    const {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  return overlay_;
}

void ShardRouter::RebuildOverlayLocked() {
  bool any = false;
  for (const bool t : tripped_) any = any || t;
  if (!any) {
    overlay_ = nullptr;  // All healthy: back to the overlay-free fast path.
  } else {
    auto overlay = std::make_shared<Overlay>();
    const int n = num_shards();
    overlay->redirect.resize(n);
    for (int home = 0; home < n; ++home) {
      int target = home;
      if (tripped_[home]) {
        // The next untripped shard, scanning upward with wraparound; if
        // every shard is tripped, traffic stays home (and the closed-queue
        // hop in Submit does what it can).
        for (int i = 1; i < n; ++i) {
          const int candidate = (home + i) % n;
          if (!tripped_[candidate]) {
            target = candidate;
            break;
          }
        }
      }
      overlay->redirect[home] = target;
    }
    overlay_ = std::move(overlay);
  }
  overlay_epoch_.fetch_add(1, std::memory_order_relaxed);
}

void ShardRouter::TripShard(int k) {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  DPDP_CHECK(k >= 0 && k < num_shards());
  if (tripped_[k]) return;
  tripped_[k] = true;
  RebuildOverlayLocked();
  obs::RecordFlight(obs::FlightEventKind::kReroute, "serve.trip", k,
                    static_cast<uint64_t>(overlay_ ? overlay_->redirect[k]
                                                   : k));
}

void ShardRouter::RestoreShard(int k) {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  DPDP_CHECK(k >= 0 && k < num_shards());
  if (!tripped_[k]) return;
  tripped_[k] = false;
  RebuildOverlayLocked();
  obs::RecordFlight(obs::FlightEventKind::kRestore, "serve.restore", k);
}

bool ShardRouter::IsTripped(int k) const {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  return tripped_[k];
}

int ShardRouter::RedirectOf(int home) const {
  const std::shared_ptr<const Overlay> overlay = CurrentOverlay();
  return overlay ? overlay->redirect[home] : home;
}

std::future<ServeReply> ShardRouter::Submit(const DispatchContext& context) {
  const int64_t route_start = obs::TraceEnabled() ? MonotonicNanos() : 0;
  const int home = ShardOf(context);
  const std::shared_ptr<const Overlay> overlay = CurrentOverlay();
  int target = overlay ? overlay->redirect[home] : home;
  DispatchService& home_shard = *shards_[home];
  // The routing hop (shard choice + overlay lookup) starts the request's
  // flow lane and the build hop follows it; admission hops below extend
  // it. The built item rides along to whichever shard admits it.
  DecisionRequest request = home_shard.MakeRequest(context, route_start);
  std::future<ServeReply> fut = request.reply.get_future();
  const int64_t enqueue_ns = ToNanos(request.enqueue_time);
  const int n = num_shards();
  for (int hop = 0; hop < n; ++hop) {
    DispatchService* shard = shards_[target].get();
    if (request.trace.active() && target != home) {
      // One reroute hop per diverted admission attempt, recorded before
      // Admit can move the request into the target's queue.
      const int64_t now = MonotonicNanos();
      request.trace = obs::RecordHop("serve.hop.reroute", request.trace, now,
                                     now, obs::FlowPhase::kStep);
    }
    const PushResult result = shard->Admit(&request);
    if (result == PushResult::kAdmitted) {
      if (target != home) {
        home_shard.CountReroute();
        RerouteLatency().Record(
            static_cast<double>(MonotonicNanos() - enqueue_ns) / 1e9);
      }
      return fut;
    }
    if (result == PushResult::kFull) {
      // Transient overload at the target: shed there (Admit counted the
      // request against it), exactly the single-shard policy.
      shard->AnswerShed(&request, /*closed_reject=*/false);
      return fut;
    }
    // kClosed: the target is down (crashed or restarting) and never saw
    // the request — hop to the next shard.
    target = (target + 1) % n;
  }
  // Every queue closed: the fabric is stopping. Count the request and the
  // shed against the home shard so the rollup still balances.
  home_shard.CountRequest();
  home_shard.AnswerShed(&request, /*closed_reject=*/true);
  return fut;
}

void ShardRouter::Stop() {
  for (std::unique_ptr<DispatchService>& shard : shards_) shard->Stop();
}

RouterStats ShardRouter::Stats() const {
  RouterStats stats;
  stats.shards.reserve(shards_.size());
  for (const std::unique_ptr<DispatchService>& shard : shards_) {
    ShardStats s;
    s.requests = shard->requests();
    s.sheds = shard->sheds();
    s.sheds_closed = shard->sheds_closed();
    s.batches = shard->batches();
    s.degraded = shard->degraded();
    s.deadline_exceeded = shard->deadline_exceeded();
    s.rerouted = shard->rerouted();
    s.restarts = shard->restarts();
    s.swaps_applied = shard->swaps_applied();
    stats.total.requests += s.requests;
    stats.total.sheds += s.sheds;
    stats.total.sheds_closed += s.sheds_closed;
    stats.total.batches += s.batches;
    stats.total.degraded += s.degraded;
    stats.total.deadline_exceeded += s.deadline_exceeded;
    stats.total.rerouted += s.rerouted;
    stats.total.restarts += s.restarts;
    stats.total.swaps_applied += s.swaps_applied;
    stats.shards.push_back(s);
  }
  return stats;
}

}  // namespace dpdp::serve
