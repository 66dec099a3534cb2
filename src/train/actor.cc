#include "train/actor.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/state.h"
#include "util/rng.h"
#include "util/status.h"

namespace dpdp::train {
namespace {

/// Base of the per-episode exploration seed streams. Episode e explores
/// with Rng(Rng::DeriveSeed(kExploreSeedBase, e)) — a pure function of the
/// GLOBAL episode index, independent of which actor runs it, so any actor
/// count replays the identical exploration sequence.
constexpr uint64_t kExploreSeedBase = 9001;

struct ActorMetrics {
  obs::Counter* episodes =
      obs::MetricsRegistry::Global().GetCounter("train.episodes");
  obs::Counter* explore_decisions =
      obs::MetricsRegistry::Global().GetCounter("train.explore_decisions");
  obs::Counter* served_decisions =
      obs::MetricsRegistry::Global().GetCounter("train.served_decisions");
  obs::Counter* sheds =
      obs::MetricsRegistry::Global().GetCounter("train.sheds");
};

ActorMetrics& Metrics() {
  static ActorMetrics* metrics = new ActorMetrics;
  return *metrics;
}

/// One actor episode's policy: explore with probability epsilon (a uniform
/// feasible pick), otherwise Submit the decision to the shared service.
/// Records every decision it made through EpisodeRecorder exactly as a
/// local DqnFleetAgent does, and tallies the episode's decision counters.
class RolloutDispatcher final : public Dispatcher {
 public:
  RolloutDispatcher(const AgentConfig& config,
                    serve::DecisionService* service, bool deterministic,
                    Rng rng, double epsilon, EpisodeExperience* experience)
      : config_(config),
        service_(service),
        deterministic_(deterministic),
        rng_(rng),
        epsilon_(epsilon),
        experience_(experience) {}

  const char* name() const override { return "rollout"; }

  int Act(const DispatchContext& context) override {
    const FleetState state = BuildFleetState(context, config_);
    int action = -1;
    if (rng_.Bernoulli(epsilon_)) {
      const std::vector<int> feasible = state.FeasibleIndices();
      DPDP_CHECK(!feasible.empty());
      action = feasible[rng_.UniformInt(static_cast<int>(feasible.size()))];
      ++experience_->explore_decisions;
    } else {
      serve::ServeReply reply = service_->Submit(context).get();
      if (deterministic_) {
        // Any non-model answer depends on wall-clock scheduling and would
        // silently break the N-actor golden — fail loudly instead.
        DPDP_CHECK(!reply.shed);
        DPDP_CHECK(!reply.deadline_exceeded);
      }
      if (reply.shed) ++experience_->sheds;
      if (reply.model_seq > experience_->max_model_seq) {
        experience_->max_model_seq = reply.model_seq;
      }
      action = reply.vehicle;
      ++experience_->served_decisions;
    }
    // A refused decision (-1, degraded reply) records nothing, exactly
    // like the local agent.
    if (action >= 0) recorder_.Record(state);
    return action;
  }

  void Observe(const DispatchContext& context, int vehicle) override {
    recorder_.Observe(context, vehicle, config_);
  }

  void Learn(const EpisodeResult& result) override {
    (void)result;
    experience_->transitions = recorder_.Fold();
  }

 private:
  const AgentConfig& config_;
  serve::DecisionService* const service_;
  const bool deterministic_;
  Rng rng_;
  const double epsilon_;
  EpisodeExperience* const experience_;
  EpisodeRecorder recorder_;
};

}  // namespace

Actor::Actor(int id, const Instance* instance, SimulatorConfig sim_config,
             const AgentConfig& agent_config,
             serve::DecisionService* service, ActorOptions options)
    : id_(id),
      agent_config_(agent_config),
      options_(options),
      service_(service),
      env_(instance, std::move(sim_config)) {
  DPDP_CHECK(service_ != nullptr);
}

EpisodeExperience Actor::RunEpisode(int episode_index, double epsilon) {
  DPDP_TRACE_SPAN("train.episode");
  EpisodeExperience experience;
  experience.episode = episode_index;

  // Exploration stream and disruption stream are both pure functions of
  // the global episode index — the determinism contract's foundation.
  RolloutDispatcher rollout(
      agent_config_, service_, options_.deterministic,
      Rng(Rng::DeriveSeed(kExploreSeedBase,
                          static_cast<uint64_t>(episode_index))),
      epsilon, &experience);
  env_.set_episodes_run(episode_index);
  experience.result = dpdp::RunEpisode(&env_, &rollout);
  if (experience.max_model_seq > max_model_seq_) {
    max_model_seq_ = experience.max_model_seq;
  }

  Metrics().episodes->Add(1);
  Metrics().explore_decisions->Add(experience.explore_decisions);
  Metrics().served_decisions->Add(experience.served_decisions);
  if (experience.sheds > 0) Metrics().sheds->Add(experience.sheds);
  return experience;
}

}  // namespace dpdp::train
