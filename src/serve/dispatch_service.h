#ifndef DPDP_SERVE_DISPATCH_SERVICE_H_
#define DPDP_SERVE_DISPATCH_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "rl/config.h"
#include "serve/chaos.h"
#include "serve/model_server.h"
#include "serve/request_queue.h"
#include "sim/dispatcher.h"

namespace dpdp::serve {

/// Micro-batching policy + admission bound of a DispatchService.
struct ServeConfig {
  /// Flush a batch as soon as this many requests are pending.
  int max_batch = 16;
  /// ... or once the oldest pending request has waited this long. The
  /// latency floor a lone client pays for batching; keep it well under the
  /// per-decision planner cost or it shows up in p50.
  long max_wait_us = 500;
  /// Admission bound. Requests arriving with this many already queued are
  /// shed to the greedy-insertion fallback on the caller's thread. 0 sheds
  /// everything (drain mode).
  int queue_capacity = 256;
  /// Modeled synchronous downstream-commit latency per batch, in
  /// microseconds. A real dispatch fabric does not release decisions the
  /// moment the model scores them: the batch is committed to a downstream
  /// channel (courier comms, order store, message bus) and the replies are
  /// released on its ack. This knob models that ack as a timed wait between
  /// evaluation and reply release — it consumes no CPU, so it is exactly
  /// the kind of latency that sharding overlaps across service loops.
  /// 0 (the default) disables the stage entirely.
  long commit_us = 0;
  /// Per-request reply deadline in microseconds; 0 (the default) disables
  /// deadlines. A request whose deadline passes before the model answers
  /// it is answered with the greedy-insertion fallback instead (counted in
  /// serve.deadline_exceeded) — the client promise is never blocked on a
  /// slow or stalled evaluation. Wall-clock deadlines trade determinism
  /// for bounded latency, so they are off wherever bitwise goldens apply.
  long deadline_us = 0;
  /// Seeded fault injection (default: everything off). See serve/chaos.h.
  ChaosConfig chaos;
};

/// Fills a ServeConfig from DPDP_SERVE_MAX_BATCH / DPDP_SERVE_MAX_WAIT_US /
/// DPDP_SERVE_QUEUE_CAP / DPDP_SERVE_COMMIT_US / DPDP_SERVE_DEADLINE_US and
/// the DPDP_SERVE_CHAOS* family, with the struct defaults as fallbacks.
ServeConfig ServeConfigFromEnv();

/// Anything that answers decision requests asynchronously: the single
/// micro-batching DispatchService, or the ShardRouter fanning out over N
/// of them. Dispatch adapters and load generators target this interface so
/// a simulator neither knows nor cares whether its decisions crossed one
/// queue or a sharded fabric.
class DecisionService {
 public:
  virtual ~DecisionService() = default;

  /// Submits one decision request. The request's network input is built
  /// from `context` on the calling thread before Submit returns, but
  /// `context` must stay alive until the returned future is fulfilled:
  /// shed and deadline replies run the greedy fallback on it
  /// (ServiceDispatcher guarantees this by blocking inside Act).
  /// Thread-safe.
  virtual std::future<ServeReply> Submit(const DispatchContext& context) = 0;
};

/// Identity of a service inside a sharded fabric. A default-constructed
/// tag (index -1) means "not a shard": the service reports only the
/// aggregate serve.* metrics, exactly the pre-sharding behavior.
struct ShardTag {
  int index = -1;
};

/// The in-process dispatch service: many concurrent simulated campuses
/// submit decision requests; a single service loop coalesces them into
/// stacked DecisionBatch evaluations on the current ModelSnapshot. Each
/// submitter builds its own request's fleet state, sub-fleet and neighbor
/// lists (MakeRequest), so the loop only triages deadlines, stacks the
/// built items, runs one EvaluateBatch and replies.
///
/// Correctness invariant: because a stacked EvaluateBatch is bit-identical
/// to per-item evaluation (neighbor lists that never cross items + one-
/// chain-per-element GEMM; see DESIGN.md "Compute kernel model"), a served
/// decision equals the decision a local agent with the same weights would
/// make — however requests happen to interleave into batches. Batching
/// changes wall-clock cost, never decisions.
///
/// Overload semantics: admission control degrades, it never stalls. A
/// request that cannot be admitted is answered immediately on the caller's
/// thread with the greedy-insertion fallback (Baseline 1's rule) and
/// flagged shed = true; the serve.shed counter tracks how often. With a
/// deadline configured, an admitted request that ages past it is answered
/// with the same fallback, flagged deadline_exceeded — so a stalled or
/// slow shard degrades service quality, never availability.
///
/// Failure model hooks (see DESIGN.md "Failure model"): the loop publishes
/// a heartbeat (last-iteration monotonic timestamp) and a tick count; a
/// seeded ChaosPolicy can stall the loop, slow evaluations, or crash the
/// loop outright (the batch in hand is requeued first — admitted work is
/// never lost). A crashed service reports crashed() == true and is brought
/// back via Restart(), which drains the orphaned backlog for the caller to
/// reroute and spawns a fresh loop whose net replica resyncs from the
/// ModelServer.
///
/// When constructed with a ShardTag (index >= 0), the service additionally
/// reports per-shard registry counters (serve.shard<k>.requests / shed /
/// batches / batched_items / degraded / deadline_exceeded / shed_closed /
/// rerouted / restarts), annotates each batch with a "serve.shard<k>"
/// trace span, and stamps replies with its shard index. The aggregate
/// serve.* metrics are shared by all shards, so the global registry's
/// serve.requests is by construction the cross-shard rollup:
/// aggregate == sum over shards of serve.shard<k>.requests.
class DispatchService : public DecisionService {
 public:
  /// The service evaluates on `models`'s config (MakeQNetwork-compatible
  /// weights). `models` must outlive the service.
  DispatchService(const ServeConfig& config, ModelServer* models,
                  ShardTag tag = {});
  ~DispatchService() override;

  DispatchService(const DispatchService&) = delete;
  DispatchService& operator=(const DispatchService&) = delete;

  std::future<ServeReply> Submit(const DispatchContext& context) override;

  /// Submit with an explicit reply-by deadline (overrides the config's
  /// deadline for this request). A deadline already in the past is
  /// answered immediately on the caller's thread with the greedy fallback,
  /// flagged deadline_exceeded — the "already expired at push" case.
  std::future<ServeReply> SubmitWithDeadline(
      const DispatchContext& context,
      std::chrono::steady_clock::time_point deadline);

  // --- Fabric-facing admission (used by ShardRouter / ShardSupervisor) ---

  /// Builds a request for `context` on the calling thread: the fleet
  /// state, the inference indices and the one-item DecisionBatch the
  /// service loop stacks, stamped with this service's deadline policy. The
  /// request carries its item through every requeue, readmit and reroute,
  /// so it is built once. `route_start` (MonotonicNanos, 0 when tracing is
  /// off) opens a traced request's route hop, which ends where the build
  /// hop begins. The caller owns the promise until the request is
  /// admitted.
  DecisionRequest MakeRequest(const DispatchContext& context,
                              int64_t route_start) const;

  /// Tries to enqueue an already-built request, preserving its promise.
  /// Counts the request against this shard unless the queue is closed
  /// (kClosed: this shard is down and never saw the request — the router
  /// reroutes it to a live shard instead). On failure the caller keeps the
  /// request and must answer or re-route it.
  PushResult Admit(DecisionRequest* request);

  /// Admit without counting: re-enqueue of a restart-drained orphan that
  /// was already counted at its original admission. A client request is
  /// one request no matter how many shards it bounces through.
  PushResult Readmit(DecisionRequest* request);

  /// Counts one request against this shard without enqueueing (the
  /// router's all-shards-down path, where the shed is attributed home).
  void CountRequest();

  /// Answers `request` on the caller's thread with the greedy-insertion
  /// fallback, flagged shed. `closed_reject` selects the closed-queue
  /// shed accounting (serve.shed_closed) on top of the plain shed counter.
  /// Does not count the request itself — pair with Admit/CountRequest.
  void AnswerShed(DecisionRequest* request, bool closed_reject);

  /// Counts one request of this shard's partition that the router diverted
  /// to another shard (failover accounting: rerouted is charged to the
  /// HOME shard whose traffic moved).
  void CountReroute();

  /// Stops the service: closes admission, drains every queued request
  /// (through the model, or — after a crash — through the shed path so no
  /// promise is ever abandoned), and joins the service loop. Idempotent;
  /// the destructor calls it.
  void Stop();

  /// Supervised restart after a crash: joins the dead loop, drains the
  /// orphaned backlog into `orphans` (already-admitted requests the
  /// supervisor reroutes to live shards), reopens admission, and spawns a
  /// fresh loop. The new loop's net replica resyncs from the ModelServer
  /// at its first batch, so a restarted shard serves the CURRENT snapshot
  /// no matter how stale its predecessor was. Returns false when the
  /// service is not crashed or already stopped.
  bool Restart(std::vector<DecisionRequest>* orphans);

  // Lifetime totals (this service instance, not the global registry).
  uint64_t requests() const { return requests_.load(); }
  uint64_t sheds() const { return sheds_.load(); }
  uint64_t sheds_closed() const { return sheds_closed_.load(); }
  uint64_t batches() const { return batches_.load(); }
  uint64_t degraded() const { return degraded_.load(); }
  uint64_t deadline_exceeded() const { return deadline_exceeded_.load(); }
  uint64_t rerouted() const { return rerouted_.load(); }
  uint64_t restarts() const { return restarts_.load(); }
  /// Snapshot swaps observed by the service loop (transitions after the
  /// initial weight sync).
  uint64_t swaps_applied() const { return swaps_applied_.load(); }
  /// Highest snapshot seq the service loop has synced its net to. The
  /// ModelServer publishes strictly increasing seqs and the loop re-syncs
  /// at batch boundaries, so this never regresses (a restart resets the
  /// replica, which then catches straight up to the current snapshot).
  uint64_t net_seq() const { return net_seq_.load(); }

  // --- Health surface (read by the ShardSupervisor's watchdog) ---

  /// Monotonic-nanos timestamp of the loop's last iteration boundary. A
  /// heartbeat that goes stale while queue_size() > 0 means the loop is
  /// wedged mid-batch (stall) — an idle loop parked on an empty queue is
  /// healthy no matter how old its heartbeat is.
  int64_t heartbeat_ns() const { return heartbeat_ns_.load(); }
  /// Service-loop batch iterations so far (the chaos tick space).
  uint64_t ticks() const { return ticks_.load(); }
  /// True after the loop died to an injected crash (until Restart).
  bool crashed() const { return crashed_.load(); }
  /// Admitted-but-unpopped requests.
  size_t queue_size() const { return queue_.size(); }

  /// Shard index (-1 when not part of a sharded fabric).
  int shard_index() const { return tag_.index; }
  const ServeConfig& config() const { return config_; }

 private:
  void Loop();
  /// Answers `request` with the greedy fallback, flagged deadline_exceeded.
  void AnswerDeadline(DecisionRequest* request);

  const ServeConfig config_;
  ModelServer* const models_;
  const ShardTag tag_;
  RequestQueue queue_;
  /// Present iff config_.chaos.any(): the seeded fault schedule shared by
  /// every incarnation of the loop (ticks keep counting across restarts).
  std::optional<ChaosPolicy> chaos_;

  /// Per-shard metric handles; null when tag_.index < 0. Owned by the
  /// global registry (stable for process lifetime).
  obs::Counter* shard_requests_ = nullptr;
  obs::Counter* shard_sheds_ = nullptr;
  obs::Counter* shard_sheds_closed_ = nullptr;
  obs::Counter* shard_batches_ = nullptr;
  obs::Counter* shard_batched_items_ = nullptr;
  obs::Counter* shard_degraded_ = nullptr;
  obs::Counter* shard_deadline_exceeded_ = nullptr;
  obs::Counter* shard_rerouted_ = nullptr;
  obs::Counter* shard_restarts_ = nullptr;
  obs::Gauge* shard_queue_depth_ = nullptr;
  /// Span name "serve.shard<k>" (ShardSpanName: never freed, since
  /// buffered spans outlive the shard until the trace file is written).
  const char* shard_span_name_ = nullptr;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> sheds_{0};
  std::atomic<uint64_t> sheds_closed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> rerouted_{0};
  std::atomic<uint64_t> restarts_{0};
  std::atomic<uint64_t> swaps_applied_{0};
  std::atomic<uint64_t> net_seq_{0};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<int64_t> heartbeat_ns_{0};
  std::atomic<bool> crashed_{false};

  /// Guards loop-thread ownership across Stop/Restart (the supervisor and
  /// the owner may race teardown).
  std::mutex lifecycle_mu_;
  std::thread loop_;
  std::atomic<bool> stopped_{false};
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_DISPATCH_SERVICE_H_
