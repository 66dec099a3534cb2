#include "serve/dispatch_service.h"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/q_network.h"
#include "rl/state.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dpdp::serve {
namespace {

struct ServeMetrics {
  obs::Counter* requests =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  obs::Counter* shed = obs::MetricsRegistry::Global().GetCounter("serve.shed");
  obs::Counter* shed_closed =
      obs::MetricsRegistry::Global().GetCounter("serve.shed_closed");
  obs::Counter* batches =
      obs::MetricsRegistry::Global().GetCounter("serve.batches");
  obs::Counter* batched_items =
      obs::MetricsRegistry::Global().GetCounter("serve.batched_items");
  obs::Counter* degraded =
      obs::MetricsRegistry::Global().GetCounter("serve.degraded");
  obs::Counter* deadline_exceeded =
      obs::MetricsRegistry::Global().GetCounter("serve.deadline_exceeded");
  obs::Counter* rerouted =
      obs::MetricsRegistry::Global().GetCounter("serve.rerouted");
  obs::Counter* restarts =
      obs::MetricsRegistry::Global().GetCounter("serve.restarts");
  obs::Counter* chaos_stalls =
      obs::MetricsRegistry::Global().GetCounter("serve.chaos.stalls");
  obs::Counter* chaos_slowdowns =
      obs::MetricsRegistry::Global().GetCounter("serve.chaos.slowdowns");
  obs::Counter* chaos_crashes =
      obs::MetricsRegistry::Global().GetCounter("serve.chaos.crashes");
  obs::Histogram* batch_size = obs::MetricsRegistry::Global().GetHistogram(
      "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
  obs::Histogram* queue_wait = obs::MetricsRegistry::Global().GetHistogram(
      "serve.queue_wait_s", obs::LatencyBucketsSeconds());
  /// One batch's weight sync, stacking and forward. The items were built
  /// on the submitting threads (serve.hop.build_s), so no build is in it.
  obs::Histogram* eval_latency = obs::MetricsRegistry::Global().GetHistogram(
      "serve.eval_latency_s", obs::LatencyBucketsSeconds());
  obs::Histogram* commit_latency = obs::MetricsRegistry::Global().GetHistogram(
      "serve.commit_latency_s", obs::LatencyBucketsSeconds());
  /// End-to-end service latency (submit -> reply release, the build
  /// included), recorded for every answered request on every path
  /// (served, shed, deadline) — the histogram the SLO monitor's p99
  /// objective reads by default.
  obs::Histogram* request_latency = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request_latency_s", obs::LatencyBucketsSeconds());
  /// Queue depth sampled at each batch pop (aggregate; per-shard gauges
  /// live on the service). Gauge, not histogram: the live value is what a
  /// dashboard wants, and the timeseries sampler turns it into a curve.
  obs::Gauge* queue_depth =
      obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
  /// Per-hop latency histograms, recorded only for traced requests (the
  /// hop spans and these rows come from the same timestamps).
  obs::Histogram* hop_route = obs::MetricsRegistry::Global().GetHistogram(
      "serve.hop.route_s", obs::LatencyBucketsSeconds());
  obs::Histogram* hop_build = obs::MetricsRegistry::Global().GetHistogram(
      "serve.hop.build_s", obs::LatencyBucketsSeconds());
  obs::Histogram* hop_queue = obs::MetricsRegistry::Global().GetHistogram(
      "serve.hop.queue_s", obs::LatencyBucketsSeconds());
  obs::Histogram* hop_eval = obs::MetricsRegistry::Global().GetHistogram(
      "serve.hop.eval_s", obs::LatencyBucketsSeconds());
  obs::Histogram* hop_commit = obs::MetricsRegistry::Global().GetHistogram(
      "serve.hop.commit_s", obs::LatencyBucketsSeconds());
  obs::Histogram* hop_reply = obs::MetricsRegistry::Global().GetHistogram(
      "serve.hop.reply_s", obs::LatencyBucketsSeconds());
};

ServeMetrics& Metrics() {
  static ServeMetrics* metrics = new ServeMetrics;
  return *metrics;
}

/// Nanos-since-steady-epoch of a steady_clock time_point — the same clock
/// MonotonicNanos reads, so queue-hop spans can start at enqueue time.
int64_t ToNanos(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

/// Seconds between two monotonic-nanos stamps (histogram convenience).
double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// The span name "serve.shard<index>". A buffered span keeps its name
/// pointer until the trace file is written, which can be after the shard
/// is destroyed, so each index's name is made once and never freed.
const char* ShardSpanName(int index) {
  static std::mutex mu;
  static auto* names = new std::map<int, std::string>;
  std::lock_guard<std::mutex> lock(mu);
  return names->try_emplace(index, "serve.shard" + std::to_string(index))
      .first->second.c_str();
}

/// Records a submit-side hop that ends now, plus its histogram row. No-op
/// for untraced requests: one branch.
void RecordSubmitHop(const char* name, obs::FlowPhase phase,
                     obs::Histogram* histogram, DecisionRequest* request,
                     int64_t start) {
  if (!request->trace.active()) return;
  const int64_t now = MonotonicNanos();
  request->trace = obs::RecordHop(name, request->trace, start, now, phase);
  histogram->Record(SecondsBetween(start, now));
}

/// A request for `context` with no item yet: its submit time, its trace
/// identity and the route hop that starts its flow lane (routing ends
/// here).
DecisionRequest OpenRequest(const DispatchContext& context,
                            int64_t route_start) {
  DecisionRequest request;
  request.context = &context;
  request.submit_time = std::chrono::steady_clock::now();
  request.trace = obs::NewTraceContext();
  RecordSubmitHop("serve.hop.route", obs::FlowPhase::kStart,
                  Metrics().hop_route, &request, route_start);
  return request;
}

}  // namespace

DispatchService::DispatchService(const ServeConfig& config,
                                 ModelServer* models, ShardTag tag)
    : config_(config),
      models_(models),
      tag_(tag),
      queue_(config.queue_capacity) {
  DPDP_CHECK(models_ != nullptr);
  if (config_.chaos.any()) chaos_.emplace(config_.chaos);
  if (tag_.index >= 0) {
    shard_span_name_ = ShardSpanName(tag_.index);
    const std::string prefix = shard_span_name_;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    shard_requests_ = registry.GetCounter(prefix + ".requests");
    shard_sheds_ = registry.GetCounter(prefix + ".shed");
    shard_sheds_closed_ = registry.GetCounter(prefix + ".shed_closed");
    shard_batches_ = registry.GetCounter(prefix + ".batches");
    shard_batched_items_ = registry.GetCounter(prefix + ".batched_items");
    shard_degraded_ = registry.GetCounter(prefix + ".degraded");
    shard_deadline_exceeded_ =
        registry.GetCounter(prefix + ".deadline_exceeded");
    shard_rerouted_ = registry.GetCounter(prefix + ".rerouted");
    shard_restarts_ = registry.GetCounter(prefix + ".restarts");
    shard_queue_depth_ = registry.GetGauge(prefix + ".queue_depth");
  }
  heartbeat_ns_.store(MonotonicNanos(), std::memory_order_relaxed);
  loop_ = std::thread([this] { Loop(); });
}

DispatchService::~DispatchService() { Stop(); }

DecisionRequest DispatchService::MakeRequest(const DispatchContext& context,
                                             int64_t route_start) const {
  DecisionRequest request = OpenRequest(context, route_start);
  const int64_t build_start = request.trace.active() ? MonotonicNanos() : 0;
  const AgentConfig& config = models_->config();
  FleetState state = BuildFleetState(context, config);
  request.vehicles = InferenceIndices(state, config);
  AppendSubFleetInputs(state, request.vehicles, config.use_graph,
                       config.num_neighbors, &request.item);
  request.fleet.feasible = std::move(state.feasible);
  RecordSubmitHop("serve.hop.build", obs::FlowPhase::kStep,
                  Metrics().hop_build, &request, build_start);
  // The queue wait starts once the item is built; the deadline counts from
  // the submit.
  request.enqueue_time = std::chrono::steady_clock::now();
  if (config_.deadline_us > 0) {
    request.deadline =
        request.submit_time + std::chrono::microseconds(config_.deadline_us);
    request.has_deadline = true;
  }
  return request;
}

std::future<ServeReply> DispatchService::Submit(
    const DispatchContext& context) {
  const int64_t route_start = obs::TraceEnabled() ? MonotonicNanos() : 0;
  DecisionRequest request = MakeRequest(context, route_start);
  std::future<ServeReply> fut = request.reply.get_future();
  CountRequest();
  const PushResult result = queue_.TryPush(std::move(request));
  if (result != PushResult::kAdmitted) {
    // Shed: answer right here on the caller's thread with the emergency
    // rule. Overload slows one caller down by its unused build and one
    // greedy scan; it never wedges the service or blocks the queue.
    AnswerShed(&request, /*closed_reject=*/result == PushResult::kClosed);
  }
  return fut;
}

std::future<ServeReply> DispatchService::SubmitWithDeadline(
    const DispatchContext& context,
    std::chrono::steady_clock::time_point deadline) {
  const int64_t route_start = obs::TraceEnabled() ? MonotonicNanos() : 0;
  CountRequest();
  if (std::chrono::steady_clock::now() >= deadline) {
    // Already expired at push: never worth a build or a queue slot.
    DecisionRequest request = OpenRequest(context, route_start);
    std::future<ServeReply> fut = request.reply.get_future();
    AnswerDeadline(&request);
    return fut;
  }
  DecisionRequest request = MakeRequest(context, route_start);
  request.deadline = deadline;
  request.has_deadline = true;
  std::future<ServeReply> fut = request.reply.get_future();
  const PushResult result = queue_.TryPush(std::move(request));
  if (result != PushResult::kAdmitted) {
    AnswerShed(&request, /*closed_reject=*/result == PushResult::kClosed);
  }
  return fut;
}

PushResult DispatchService::Admit(DecisionRequest* request) {
  const PushResult result = queue_.TryPush(std::move(*request));
  // A closed shard never saw the request: the router re-routes it to a
  // live shard, which does the counting. Admitted and shed (kFull)
  // requests are this shard's traffic.
  if (result != PushResult::kClosed) CountRequest();
  return result;
}

PushResult DispatchService::Readmit(DecisionRequest* request) {
  return queue_.TryPush(std::move(*request));
}

void DispatchService::CountRequest() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Metrics().requests->Add();
  if (shard_requests_ != nullptr) shard_requests_->Add();
}

void DispatchService::AnswerShed(DecisionRequest* request,
                                 bool closed_reject) {
  ServeReply reply;
  reply.vehicle = GreedyInsertionFallback(*request->context);
  reply.shed = true;
  reply.model_seq = models_->current_seq();
  reply.shard = tag_.index;
  sheds_.fetch_add(1, std::memory_order_relaxed);
  Metrics().shed->Add();
  if (shard_sheds_ != nullptr) shard_sheds_->Add();
  if (closed_reject) {
    sheds_closed_.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed_closed->Add();
    if (shard_sheds_closed_ != nullptr) shard_sheds_closed_->Add();
  }
  const int64_t now = MonotonicNanos();
  Metrics().request_latency->Record(
      SecondsBetween(ToNanos(request->submit_time), now));
  if (request->trace.active()) {
    // Terminal hop: the shed decision ends the request's flow lane.
    request->trace = obs::RecordHop("serve.hop.shed", request->trace, now,
                                    now, obs::FlowPhase::kEnd);
  }
  reply.trace_id = request->trace.trace_id;
  request->reply.set_value(reply);
}

void DispatchService::AnswerDeadline(DecisionRequest* request) {
  ServeReply reply;
  reply.vehicle = GreedyInsertionFallback(*request->context);
  reply.deadline_exceeded = true;
  reply.model_seq = models_->current_seq();
  reply.shard = tag_.index;
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  Metrics().deadline_exceeded->Add();
  if (shard_deadline_exceeded_ != nullptr) shard_deadline_exceeded_->Add();
  const int64_t now = MonotonicNanos();
  Metrics().request_latency->Record(
      SecondsBetween(ToNanos(request->submit_time), now));
  if (request->trace.active()) {
    // Terminal hop: deadline triage answered with the fallback.
    request->trace = obs::RecordHop("serve.hop.triage", request->trace, now,
                                    now, obs::FlowPhase::kEnd);
  }
  reply.trace_id = request->trace.trace_id;
  request->reply.set_value(reply);
}

void DispatchService::CountReroute() {
  rerouted_.fetch_add(1, std::memory_order_relaxed);
  Metrics().rerouted->Add();
  if (shard_rerouted_ != nullptr) shard_rerouted_->Add();
}

void DispatchService::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  stopped_.store(true);
  queue_.Close();
  if (loop_.joinable()) loop_.join();
  // A crashed loop exits without draining; its in-hand batch was requeued.
  // Answer that backlog through the closed-shed path so no promise is ever
  // abandoned — the one thing the fabric never does is lose a reply.
  std::vector<DecisionRequest> leftovers;
  while (queue_.PopBatch(&leftovers, config_.max_batch, 0) > 0) {
    for (DecisionRequest& request : leftovers) {
      AnswerShed(&request, /*closed_reject=*/true);
    }
  }
}

bool DispatchService::Restart(std::vector<DecisionRequest>* orphans) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (stopped_.load() || !crashed_.load(std::memory_order_acquire)) {
    return false;
  }
  // Collect the dead loop, then drain the orphaned backlog: everything
  // admitted before (or while) the shard was down goes to the caller for
  // rerouting with its promise intact.
  queue_.Close();
  if (loop_.joinable()) loop_.join();
  std::vector<DecisionRequest> batch;
  while (queue_.PopBatch(&batch, config_.max_batch, 0) > 0) {
    for (DecisionRequest& request : batch) {
      orphans->push_back(std::move(request));
    }
  }
  queue_.Reopen();
  crashed_.store(false, std::memory_order_release);
  heartbeat_ns_.store(MonotonicNanos(), std::memory_order_relaxed);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  Metrics().restarts->Add();
  if (shard_restarts_ != nullptr) shard_restarts_->Add();
  loop_ = std::thread([this] { Loop(); });
  return true;
}

void DispatchService::Loop() {
  // The loop's private evaluation net. Weights are synced from the current
  // ModelSnapshot whenever its seq moves; the snapshot itself is immutable,
  // so in-flight evaluation and a concurrent Publish never touch the same
  // matrices. N shard loops syncing from the same ModelServer are N
  // independent subscribers of the one hot-swap channel: each holds its
  // own replica, and a Publish reaches every shard at its next batch
  // boundary without any cross-shard coordination. A restarted loop builds
  // a FRESH replica here and syncs it at its first batch — which is what
  // "resync from the model server" means for an in-process shard.
  Rng scratch(models_->config().seed);
  std::unique_ptr<FleetQNetwork> net = MakeQNetwork(models_->config(), &scratch);
  bool synced_once = false;
  uint64_t net_seq = 0;

  std::vector<DecisionRequest> requests;
  std::vector<DecisionRequest> live;
  DecisionBatch batch;
  ServeMetrics& metrics = Metrics();

  for (;;) {
    heartbeat_ns_.store(MonotonicNanos(), std::memory_order_relaxed);
    if (queue_.PopBatch(&requests, config_.max_batch, config_.max_wait_us) ==
        0) {
      return;  // Closed and drained.
    }
    heartbeat_ns_.store(MonotonicNanos(), std::memory_order_relaxed);
    // Backlog still queued after this pop, sampled once per batch: the
    // signal a dashboard reads for queue growth under overload.
    const double depth_now = static_cast<double>(queue_.size());
    metrics.queue_depth->Set(depth_now);
    if (shard_queue_depth_ != nullptr) shard_queue_depth_->Set(depth_now);
    const uint64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed);
    if (chaos_) {
      switch (chaos_->ActionAt(tag_.index, tick)) {
        case ChaosAction::kCrash:
          // Die the way a killed worker dies — abruptly, but with the
          // in-hand batch requeued first so the supervisor's drain sees
          // every admitted request. The queue stays OPEN: requests keep
          // accumulating while the shard is down, exactly the backlog a
          // real restart has to cope with.
          metrics.chaos_crashes->Add();
          obs::RecordFlight(obs::FlightEventKind::kCrash, "serve.crash",
                            tag_.index, tick);
          for (DecisionRequest& request : requests) {
            if (!request.trace.active()) continue;
            const int64_t crash_ns = MonotonicNanos();
            request.trace =
                obs::RecordHop("serve.hop.requeue", request.trace, crash_ns,
                               crash_ns, obs::FlowPhase::kStep);
          }
          queue_.Requeue(&requests);
          crashed_.store(true, std::memory_order_release);
          return;
        case ChaosAction::kStall:
          metrics.chaos_stalls->Add();
          std::this_thread::sleep_for(
              std::chrono::microseconds(chaos_->config().stall_us));
          break;
        case ChaosAction::kEvalSlowdown:
          metrics.chaos_slowdowns->Add();
          std::this_thread::sleep_for(
              std::chrono::microseconds(chaos_->config().slow_us));
          break;
        case ChaosAction::kNone:
          break;
      }
    }

    DPDP_TRACE_SPAN("serve.batch");
    // Per-shard span annotation: the same batch shows up under its shard's
    // own name so a trace viewer separates the N loops.
    std::optional<obs::TraceSpan> shard_span;
    if (shard_span_name_ != nullptr) shard_span.emplace(shard_span_name_);

    // Deadline triage: requests that aged out while queued (or while the
    // loop was stalled) get the greedy fallback immediately; only the
    // survivors pay for an evaluation. With no deadlines configured this
    // is a straight pass-through.
    live.clear();
    const auto triage_now = std::chrono::steady_clock::now();
    for (DecisionRequest& request : requests) {
      if (request.has_deadline && triage_now >= request.deadline) {
        AnswerDeadline(&request);
      } else {
        live.push_back(std::move(request));
      }
    }
    if (live.empty()) continue;

    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const ModelSnapshot> snapshot = models_->Current();
    if (!synced_once || snapshot->seq != net_seq) {
      const std::vector<nn::Parameter*> params = net->Params();
      DPDP_CHECK(params.size() == snapshot->weights.size());
      for (size_t j = 0; j < params.size(); ++j) {
        params[j]->value = snapshot->weights[j];
      }
      net_seq = snapshot->seq;
      net_seq_.store(net_seq, std::memory_order_relaxed);
      if (synced_once) swaps_applied_.fetch_add(1, std::memory_order_relaxed);
      synced_once = true;
    }

    // Stack the built items; Add shifts each item's neighbor lists to its
    // global rows.
    const int n = static_cast<int>(live.size());
    batch.Clear();
    const int64_t eval_start_ns = ToNanos(start);
    for (int i = 0; i < n; ++i) {
      metrics.queue_wait->Record(
          std::chrono::duration<double>(start - live[i].enqueue_time)
              .count());
      if (live[i].trace.active()) {
        // The queue hop spans enqueue -> pop on the service thread, so the
        // flow arrow crosses from the submitter's lane into this shard's.
        const int64_t enqueued_ns = ToNanos(live[i].enqueue_time);
        live[i].trace =
            obs::RecordHop("serve.hop.queue", live[i].trace, enqueued_ns,
                           eval_start_ns, obs::FlowPhase::kStep);
        metrics.hop_queue->Record(
            SecondsBetween(enqueued_ns, eval_start_ns));
      }
      batch.Add(live[i].item.features(), live[i].item.neighbors());
    }
    const nn::Matrix& q = net->EvaluateBatch(batch);
    const int64_t eval_end_ns = MonotonicNanos();
    metrics.eval_latency->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    for (int i = 0; i < n; ++i) {
      if (!live[i].trace.active()) continue;
      live[i].trace =
          obs::RecordHop("serve.hop.eval", live[i].trace, eval_start_ns,
                         eval_end_ns, obs::FlowPhase::kStep);
      metrics.hop_eval->Record(SecondsBetween(eval_start_ns, eval_end_ns));
    }

    // Downstream commit: the batch's decisions become real only when the
    // downstream channel acks them, so replies are released after the
    // modeled commit wait. Pure latency, no CPU — concurrent shards
    // overlap their commits.
    if (config_.commit_us > 0) {
      DPDP_TRACE_SPAN("serve.commit");
      const auto commit_start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::microseconds(config_.commit_us));
      const int64_t commit_end_ns = MonotonicNanos();
      metrics.commit_latency->Record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        commit_start)
              .count());
      const int64_t commit_start_ns = ToNanos(commit_start);
      for (int i = 0; i < n; ++i) {
        if (!live[i].trace.active()) continue;
        live[i].trace =
            obs::RecordHop("serve.hop.commit", live[i].trace, commit_start_ns,
                           commit_end_ns, obs::FlowPhase::kStep);
        metrics.hop_commit->Record(
            SecondsBetween(commit_start_ns, commit_end_ns));
      }
    }

    const int64_t reply_start_ns = MonotonicNanos();
    for (int i = 0; i < n; ++i) {
      const GreedyQChoice choice = ArgmaxFeasibleQ(
          live[i].fleet, live[i].vehicles, q, batch.offset(i));
      ServeReply reply;
      reply.vehicle = choice.vehicle;
      reply.degraded = choice.vehicle < 0;
      reply.model_seq = snapshot->seq;
      reply.shard = tag_.index;
      if (reply.degraded) {
        degraded_.fetch_add(1, std::memory_order_relaxed);
        metrics.degraded->Add();
        if (shard_degraded_ != nullptr) shard_degraded_->Add();
      }
      const int64_t reply_ns = MonotonicNanos();
      metrics.request_latency->Record(
          SecondsBetween(ToNanos(live[i].submit_time), reply_ns));
      if (live[i].trace.active()) {
        // Terminal hop: the reply leaves the fabric, the flow lane ends.
        live[i].trace =
            obs::RecordHop("serve.hop.reply", live[i].trace, reply_start_ns,
                           reply_ns, obs::FlowPhase::kEnd);
        metrics.hop_reply->Record(SecondsBetween(reply_start_ns, reply_ns));
      }
      reply.trace_id = live[i].trace.trace_id;
      live[i].reply.set_value(reply);
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    metrics.batches->Add();
    metrics.batched_items->Add(n);
    metrics.batch_size->Record(static_cast<double>(n));
    if (shard_batches_ != nullptr) {
      shard_batches_->Add();
      shard_batched_items_->Add(n);
    }
  }
}

}  // namespace dpdp::serve
