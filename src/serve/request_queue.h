#ifndef DPDP_SERVE_REQUEST_QUEUE_H_
#define DPDP_SERVE_REQUEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "rl/q_network.h"
#include "rl/state.h"
#include "sim/dispatcher.h"

namespace dpdp::serve {

/// The answer to one decision request.
struct ServeReply {
  /// Chosen vehicle index, or -1 when the model refused the decision
  /// (non-finite Q for a feasible vehicle). A -1 is NOT substituted by the
  /// service on purpose: the caller's simulator performs its own greedy
  /// fallback and counts the degradation, exactly as it would for a local
  /// agent — which keeps served and local episode results bit-identical.
  int vehicle = -1;
  bool shed = false;      ///< Answered by admission control, not the model.
  bool degraded = false;  ///< vehicle == -1 (poisoned model output).
  /// The request's deadline expired before the model could answer: the
  /// reply carries the greedy-insertion fallback decision instead (a
  /// bounded-latency approximate answer beats a late exact one). Distinct
  /// from shed — the request WAS admitted; it just aged out.
  bool deadline_exceeded = false;
  uint64_t model_seq = 0; ///< Snapshot that scored (or shed) the request.
  int shard = -1;         ///< Answering shard (-1 outside a sharded fabric).
  /// Distributed-trace id of the request (0 when tracing was off at
  /// submit). Lets a caller correlate its reply with the request's hop
  /// lane in the exported Chrome trace.
  uint64_t trace_id = 0;
};

/// One queued decision request. The submitting thread builds the
/// decision's network input (DispatchService::MakeRequest), so the service
/// loop only stacks, scores and replies. The context stays borrowed: shed
/// and deadline replies run the greedy fallback on it, so the submitter
/// must keep it alive until the reply future is fulfilled. The dispatch
/// adapter guarantees this by blocking on the future inside Act.
struct DecisionRequest {
  const DispatchContext* context = nullptr;
  /// The scored sub-fleet as a one-item DecisionBatch: its feature rows
  /// and, for relational nets, neighbor lists naming the item's own rows.
  /// The loop stacks it with DecisionBatch::Add, which shifts the lists to
  /// global rows. Its bytes are those a local agent builds for the same
  /// context, which keeps served decisions bit-identical to local ones.
  DecisionBatch item;
  /// What ArgmaxFeasibleQ reads to turn the item's Q rows into a vehicle:
  /// the fleet index of each item row (InferenceIndices) and the fleet's
  /// feasibility flags. Only `fleet.feasible` is kept; the features and
  /// positions went into `item`.
  std::vector<int> vehicles;
  FleetState fleet;
  std::promise<ServeReply> reply;
  /// When the submitting thread opened the request, before its build.
  /// serve.request_latency_s and ServeConfig::deadline_us count from here,
  /// so both include the build.
  std::chrono::steady_clock::time_point submit_time;
  /// When the built request went to the queue. The queue wait and the
  /// flush policy's max_wait count from here.
  std::chrono::steady_clock::time_point enqueue_time;
  /// Reply-by deadline (valid when has_deadline). Past it, the service
  /// answers with the greedy fallback instead of the model.
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;
  /// Request-scoped trace identity, updated at every recorded hop so the
  /// next hop parent-links to the previous one. Inactive ({0, 0}) when
  /// tracing is disabled — carrying it then costs two dead u64s.
  obs::TraceContext trace;
};

/// Outcome of a push attempt. kFull and kClosed are deliberately distinct:
/// a full queue is transient overload (shed this request, keep routing
/// here), a closed queue means the consumer is gone — a router should fail
/// the shard over, not shed into a void.
enum class PushResult {
  kAdmitted,
  kFull,    ///< At capacity: load-shed signal.
  kClosed,  ///< Queue closed (shard stopping, crashed, or restarting).
};

/// Bounded MPSC admission queue with micro-batch pops. Producers TryPush
/// (never block — a full queue is the load-shedding signal); the single
/// consumer pops coalesced batches under a max_batch / max_wait_us policy.
class RequestQueue {
 public:
  /// `capacity` bounds the number of queued (admitted, not yet popped)
  /// requests. 0 is legal and makes every TryPush fail — the drain-mode
  /// configuration where admission control sheds all traffic.
  explicit RequestQueue(int capacity) : capacity_(capacity) {}

  /// Enqueues `request` unless the queue is full or closed. On failure the
  /// request is left untouched (the caller still owns its promise and must
  /// answer it — shed, reroute, or fallback as policy dictates).
  PushResult TryPush(DecisionRequest&& request);

  /// Returns `batch` to the FRONT of the queue in order, ignoring the
  /// capacity bound and the closed flag: these requests were already
  /// admitted once, and dropping admitted work is the one thing the fabric
  /// never does. The crash path of a chaos-injected service loop uses this
  /// to put its popped batch back before dying, so the supervisor's drain
  /// sees every outstanding request.
  void Requeue(std::vector<DecisionRequest>* batch);

  /// Blocks until at least one request is queued (or the queue is closed),
  /// then collects up to `max_batch` requests into `out`. After the first
  /// request is taken, keeps waiting for more only until the OLDEST popped
  /// request has aged `max_wait_us` past its enqueue time — so a request
  /// admitted to an idle service is answered within roughly max_wait_us
  /// plus one evaluation, while a backlogged service flushes full batches
  /// immediately. Returns the number popped; 0 only when closed and
  /// drained (the consumer's exit condition — close never drops requests).
  int PopBatch(std::vector<DecisionRequest>* out, int max_batch,
               long max_wait_us);

  /// Wakes the consumer and makes further TryPush fail with kClosed.
  /// Already-queued requests remain poppable.
  void Close();

  /// Reverts Close so admission resumes — the supervised-restart path,
  /// called after the old consumer is joined and the backlog drained.
  /// Requires the queue to be empty.
  void Reopen();

  size_t size() const;
  bool closed() const;

 private:
  const int capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<DecisionRequest> queue_;
  bool closed_ = false;
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_REQUEST_QUEUE_H_
