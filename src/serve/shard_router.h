#ifndef DPDP_SERVE_SHARD_ROUTER_H_
#define DPDP_SERVE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/dispatch_service.h"
#include "serve/model_server.h"

namespace dpdp::serve {

/// How the router picks a shard for an incoming request.
enum class RouterPolicy {
  /// Stable hash of the campus name (Instance::name): every request of a
  /// campus lands on the same shard for the process lifetime, so a shard
  /// owns a fixed partition of the city. This is the production policy —
  /// it keeps per-campus request streams FIFO through one queue and makes
  /// per-shard load a pure function of the campus -> shard map.
  kCampusHash,
  /// Strict rotation over shards per request. Spreads load evenly even
  /// when the campus population is skewed; correct because batching is
  /// decision-invariant (any shard computes the same answer from the same
  /// snapshot seq), but a campus's requests then interleave across all
  /// queues. Mostly a stress/verification policy.
  kRoundRobin,
};

/// Shape of a sharded fabric: how many shards, how requests are routed,
/// and the per-shard service policy.
struct ShardedServeConfig {
  /// Number of DispatchService shards (>= 1). 1 degenerates exactly to
  /// the single-service path: one queue, one loop, one net replica.
  int num_shards = 1;
  RouterPolicy policy = RouterPolicy::kCampusHash;
  /// Per-shard micro-batching policy + admission bound. Note the queue
  /// capacity is PER SHARD: a fabric of N shards admits up to
  /// N * shard.queue_capacity requests before shedding.
  ServeConfig shard;
};

/// FNV-1a 64-bit hash of a campus name — the stable campus -> shard map
/// behind RouterPolicy::kCampusHash. Deliberately not std::hash (which is
/// implementation-defined): the partition must be identical across
/// platforms and processes so sharded runs are reproducible.
uint64_t CampusHash(std::string_view campus_name);

/// Per-shard counter rollup (instance totals, not the global registry).
struct ShardStats {
  uint64_t requests = 0;
  uint64_t sheds = 0;
  uint64_t sheds_closed = 0;
  uint64_t batches = 0;
  uint64_t degraded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t rerouted = 0;
  uint64_t restarts = 0;
  uint64_t swaps_applied = 0;
};

struct RouterStats {
  std::vector<ShardStats> shards;  ///< Index = shard index.
  ShardStats total;                ///< Element-wise sum over shards.
};

/// The sharded dispatch fabric: N DispatchService shards, each owning its
/// own RequestQueue, service loop and net replica, all synced from ONE
/// shared ModelServer (one checkpoint watcher, N snapshot subscribers).
/// Submit routes a request to its shard and returns the shard's future —
/// the router adds no queue, no thread and no lock of its own beyond a
/// relaxed round-robin cursor.
///
/// Correctness: a served decision is a pure function of (request context,
/// snapshot weights) — the batching invariant — so WHICH shard evaluates a
/// request never changes the answer, only the wall-clock cost. That is
/// what makes the 1-vs-N-shard golden test meaningful: same seed set, any
/// shard count, bitwise-identical per-campus episodes.
///
/// Admission control stays per shard: a hot shard sheds while cold shards
/// keep admitting (no global backpressure). Aggregate serve.* metrics are
/// shared by all shards; per-shard counters are published under
/// serve.shard<k>.* so the registry rollup satisfies
/// serve.requests == sum_k serve.shard<k>.requests whenever all traffic
/// flows through tagged shards.
///
/// Failover: the ShardSupervisor trips unhealthy shards, which installs a
/// versioned overlay diverting the tripped shard's partition to a live
/// stand-in (the batching invariant makes any stand-in correct — it
/// computes the same answers from the same snapshot). Rerouted requests
/// are counted against the HOME shard's serve.shard<k>.rerouted, so the
/// counter reads "how much of k's partition ran elsewhere". With no shard
/// tripped there is no overlay at all and routing is bit-for-bit the
/// pre-failover path.
class ShardRouter : public DecisionService {
 public:
  /// `models` must outlive the router. Spawns config.num_shards service
  /// loops immediately.
  ShardRouter(const ShardedServeConfig& config, ModelServer* models);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes to ShardOf(context) — or, when a failover overlay is active,
  /// to the live shard standing in for it — and submits there. The
  /// request's item is built once, on the calling thread, before the
  /// first admission attempt. Thread-safe. A request bounced by a closed
  /// queue (the shard crashed between the overlay read and the push) hops
  /// to the next live shard with its built item, so a reply is lost only
  /// if EVERY shard is closed — i.e. the whole fabric is stopping, and
  /// even then it is answered as a closed-shed, never dropped.
  std::future<ServeReply> Submit(const DispatchContext& context) override;

  // --- Failover overlay (driven by the ShardSupervisor) ---

  /// Diverts shard `k`'s partition to the next live (untripped) shard via
  /// a fresh overlay epoch. Campus-stickiness is preserved PER EPOCH: all
  /// of k's campuses move together to one stand-in shard, so each campus's
  /// request stream stays FIFO through a single queue between overlay
  /// flips. Idempotent.
  void TripShard(int k);

  /// Removes shard `k` from the tripped set, restoring its partition in a
  /// fresh overlay epoch (the all-healthy overlay is the identity map,
  /// dropped entirely — the chaos-off fast path stays overlay-free).
  /// Idempotent.
  void RestoreShard(int k);

  bool IsTripped(int k) const;
  /// Overlay generation; bumps on every TripShard/RestoreShard change.
  uint64_t overlay_epoch() const { return overlay_epoch_.load(); }
  /// Where `home`'s traffic currently lands (identity when no overlay).
  int RedirectOf(int home) const;

  /// The shard the next submission of `context` goes to. For kCampusHash
  /// this is a pure function of the campus name; for kRoundRobin it
  /// advances the rotation cursor (so calling it consumes the slot).
  int ShardOf(const DispatchContext& context);

  /// The kCampusHash partition map, usable without a context.
  int ShardOfCampus(std::string_view campus_name) const;

  /// Stops every shard: closes admission, drains queued requests, joins
  /// the loops. Idempotent; the destructor calls it.
  void Stop();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardedServeConfig& config() const { return config_; }
  DispatchService& shard(int k) { return *shards_[k]; }
  const DispatchService& shard(int k) const { return *shards_[k]; }

  /// Point-in-time rollup of every shard's instance counters.
  RouterStats Stats() const;

 private:
  /// Immutable redirect table: overlay->redirect[home] is the shard that
  /// serves home's partition this epoch. Swapped whole under overlay_mu_;
  /// readers grab the shared_ptr and route lock-free from then on. A null
  /// overlay_ means "identity" — the common all-healthy case pays one
  /// atomic shared_ptr load and no table walk.
  struct Overlay {
    std::vector<int> redirect;
  };

  std::shared_ptr<const Overlay> CurrentOverlay() const;
  /// Rebuilds the overlay from tripped_ (callers hold overlay_mu_).
  void RebuildOverlayLocked();

  const ShardedServeConfig config_;
  std::vector<std::unique_ptr<DispatchService>> shards_;
  std::atomic<uint64_t> round_robin_{0};

  mutable std::mutex overlay_mu_;
  std::vector<bool> tripped_;            ///< Guarded by overlay_mu_.
  std::shared_ptr<const Overlay> overlay_;  ///< Guarded by overlay_mu_.
  std::atomic<uint64_t> overlay_epoch_{0};
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_SHARD_ROUTER_H_
