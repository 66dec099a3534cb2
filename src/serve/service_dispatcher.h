#ifndef DPDP_SERVE_SERVICE_DISPATCHER_H_
#define DPDP_SERVE_SERVICE_DISPATCHER_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "serve/dispatch_service.h"
#include "sim/dispatcher.h"

namespace dpdp::serve {

/// Adapts a DecisionService (one DispatchService, or a ShardRouter over N
/// of them) to the Dispatcher interface: one Act = one Submit + blocking
/// wait on the reply. This is the indirection that lets RunEpisode run
/// "backed by the service" instead of owning an agent — the environment
/// neither knows nor cares that its decision crossed a queue (or a sharded
/// fabric) and came back from a batched evaluation.
///
/// A degraded reply (vehicle -1) is returned as -1, so the environment
/// performs its own greedy fallback and counts the degradation exactly as
/// it would for a local agent. Not thread-safe; one instance per client
/// environment (the service behind it is the shared, thread-safe part).
class ServiceDispatcher : public Dispatcher {
 public:
  explicit ServiceDispatcher(DecisionService* service,
                             std::string name = "served")
      : service_(service), name_(std::move(name)) {}

  const char* name() const override { return name_.c_str(); }

  int Act(const DispatchContext& context) override {
    const auto start = std::chrono::steady_clock::now();
    ServeReply reply = service_->Submit(context).get();
    latencies_s_.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    if (reply.shed) ++sheds_;
    if (reply.degraded) ++degraded_;
    if (reply.deadline_exceeded) ++deadline_exceeded_;
    return reply.vehicle;
  }

  /// Per-decision round-trip seconds (submit to reply), in decision order.
  const std::vector<double>& latencies_s() const { return latencies_s_; }
  long sheds() const { return sheds_; }
  long degraded() const { return degraded_; }
  /// Replies answered by the deadline fallback instead of the model — the
  /// client-side mirror of the service's serve.deadline_exceeded counter.
  long deadline_exceeded() const { return deadline_exceeded_; }

 private:
  DecisionService* const service_;
  const std::string name_;
  std::vector<double> latencies_s_;
  long sheds_ = 0;
  long degraded_ = 0;
  long deadline_exceeded_ = 0;
};

}  // namespace dpdp::serve

#endif  // DPDP_SERVE_SERVICE_DISPATCHER_H_
