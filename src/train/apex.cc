#include "train/apex.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/checkpoint.h"
#include "serve/shard_router.h"
#include "util/log.h"
#include "util/timer.h"

namespace dpdp::train {
namespace {

struct ApexMetrics {
  obs::Counter* generations =
      obs::MetricsRegistry::Global().GetCounter("train.generations");
  obs::Counter* checkpoints =
      obs::MetricsRegistry::Global().GetCounter("train.checkpoints");
  obs::Gauge* epsilon = obs::MetricsRegistry::Global().GetGauge(
      "train.epsilon");
};

ApexMetrics& Metrics() {
  static ApexMetrics* metrics = new ApexMetrics;
  return *metrics;
}

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "apex-%06llu.ckpt",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

}  // namespace

ApexTrainer::ApexTrainer(const Instance* instance, const ApexConfig& config,
                         const AgentConfig& agent_config,
                         SimulatorConfig sim_config)
    : instance_(instance),
      config_(config),
      agent_config_(agent_config),
      models_(agent_config),
      learner_(agent_config, &models_,
               Rng::DeriveSeed(agent_config.seed, 0x5A3D1Eull),
               std::max(1, config.target_sync_updates)) {
  DPDP_CHECK(instance_ != nullptr);
  DPDP_CHECK(config_.num_actors >= 1);
  DPDP_CHECK(config_.episodes >= 0);
  config_.sync_every = std::max(1, config_.sync_every);
  if (config_.deterministic) {
    // Shed, deadline and chaos answers depend on wall-clock scheduling;
    // the determinism contract forbids all three. Closed-loop actors have
    // at most num_actors requests in flight, so that queue bound
    // guarantees shed never fires.
    config_.serve.deadline_us = 0;
    config_.serve.chaos = serve::ChaosConfig{};
    config_.serve.queue_capacity =
        std::max(config_.serve.queue_capacity, config_.num_actors);
  }
  if (config_.serve_shards > 1) {
    serve::ShardedServeConfig sharded;
    sharded.num_shards = config_.serve_shards;
    // Round-robin, not campus-hash: a single training instance would pin
    // every request to one shard under the hash. The batching invariant
    // makes the shard choice decision-invariant.
    sharded.policy = serve::RouterPolicy::kRoundRobin;
    sharded.shard = config_.serve;
    service_ = std::make_unique<serve::ShardRouter>(sharded, &models_);
  } else {
    service_ =
        std::make_unique<serve::DispatchService>(config_.serve, &models_);
  }
  ActorOptions actor_options;
  actor_options.deterministic = config_.deterministic;
  actors_.reserve(config_.num_actors);
  for (int a = 0; a < config_.num_actors; ++a) {
    actors_.push_back(std::make_unique<Actor>(a, instance_, sim_config,
                                              agent_config_, service_.get(),
                                              actor_options));
  }
}

ApexTrainer::~ApexTrainer() = default;

void ApexTrainer::CommitExperience(EpisodeExperience experience,
                                   ApexReport* report) {
  report->transitions += static_cast<long>(experience.transitions.size());
  report->explore_decisions += experience.explore_decisions;
  report->served_decisions += experience.served_decisions;
  report->sheds += experience.sheds;
  report->max_model_seq_seen =
      std::max(report->max_model_seq_seen, experience.max_model_seq);
  report->episodes[experience.episode] = std::move(experience.result);
  learner_.AddEpisode(std::move(experience.transitions));
}

void ApexTrainer::EndGeneration(int episodes_done) {
  learner_.RunUpdates(config_.updates_per_generation);
  learner_.Publish(++seq_, episodes_done, "learner");
  ++generations_;
  Metrics().generations->Add(1);
  if (config_.checkpoint_every > 0 && !config_.checkpoint_dir.empty() &&
      generations_ % static_cast<uint64_t>(config_.checkpoint_every) == 0) {
    const Status saved = SaveFabricCheckpoint(episodes_done, seq_);
    if (!saved.ok()) {
      DPDP_LOG(WARN) << "fabric checkpoint failed: " << saved.message();
    }
  }
}

ApexReport ApexTrainer::Run() {
  if (!config_.resume_from.empty()) {
    const Status resumed = ResumeFromCheckpoint(config_.resume_from);
    DPDP_CHECK(resumed.ok());
  }
  WallTimer timer;
  ApexReport report =
      config_.deterministic ? RunDeterministic() : RunAsync();
  report.wall_seconds = timer.ElapsedSeconds();
  report.transitions_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.transitions) / report.wall_seconds
          : 0.0;
  report.episodes_done = episodes_done_;
  report.learner_updates = learner_.updates();
  report.publishes = learner_.publishes();
  report.final_seq = seq_;
  report.last_loss = learner_.last_loss();
  report.final_epsilon =
      config_.episodes > 0 ? EpsilonAt(agent_config_, config_.episodes - 1)
                           : agent_config_.epsilon_start;
  Metrics().epsilon->Set(report.final_epsilon);
  return report;
}

ApexReport ApexTrainer::RunDeterministic() {
  ApexReport report;
  report.episodes.resize(config_.episodes);
  const int num_actors = static_cast<int>(actors_.size());
  while (episodes_done_ < config_.episodes) {
    DPDP_TRACE_SPAN("train.generation");
    const int gen_start = episodes_done_;
    const int gen_count =
        std::min(config_.sync_every, config_.episodes - gen_start);
    // Generation rollout: actor a runs the episodes e of this generation
    // with e % num_actors == a, against weights frozen at seq_. The
    // striping is over GLOBAL episode indices, so every (episode ->
    // exploration stream, epsilon, disruption stream) binding is
    // actor-count invariant.
    std::vector<std::vector<EpisodeExperience>> per_actor(actors_.size());
    std::vector<std::thread> threads;
    threads.reserve(actors_.size());
    for (int a = 0; a < num_actors; ++a) {
      threads.emplace_back([this, a, gen_start, gen_count, num_actors,
                            &per_actor] {
        for (int e = gen_start; e < gen_start + gen_count; ++e) {
          if (e % num_actors != a) continue;
          per_actor[a].push_back(
              actors_[a]->RunEpisode(e, EpsilonAt(agent_config_, e)));
        }
      });
    }
    for (std::thread& t : threads) t.join();

    // Ordered merge: commit to replay in global episode order, erasing
    // any trace of which actor produced what.
    std::vector<EpisodeExperience> merged;
    merged.reserve(gen_count);
    for (std::vector<EpisodeExperience>& episodes : per_actor) {
      for (EpisodeExperience& experience : episodes) {
        merged.push_back(std::move(experience));
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const EpisodeExperience& a, const EpisodeExperience& b) {
                return a.episode < b.episode;
              });
    for (EpisodeExperience& experience : merged) {
      CommitExperience(std::move(experience), &report);
    }
    episodes_done_ += gen_count;

    // Learner turn: a fixed update count per generation (pure function of
    // the generation structure, never of actor count), then the weight
    // publication the next generation's actors decide on.
    EndGeneration(episodes_done_);
  }
  return report;
}

ApexReport ApexTrainer::RunAsync() {
  ApexReport report;
  report.episodes.resize(config_.episodes);
  std::atomic<int> next_episode{episodes_done_};
  // Actors only run episodes and post them here; everything the learner
  // owns is touched on this thread alone.
  std::mutex inbox_mu;
  std::condition_variable inbox_cv;
  std::vector<EpisodeExperience> inbox;

  std::vector<std::thread> threads;
  threads.reserve(actors_.size());
  for (size_t a = 0; a < actors_.size(); ++a) {
    threads.emplace_back([this, a, &next_episode, &inbox_mu, &inbox_cv,
                          &inbox] {
      for (;;) {
        const int e = next_episode.fetch_add(1);
        if (e >= config_.episodes) break;
        EpisodeExperience experience =
            actors_[a]->RunEpisode(e, EpsilonAt(agent_config_, e));
        {
          std::lock_guard<std::mutex> lock(inbox_mu);
          inbox.push_back(std::move(experience));
        }
        inbox_cv.notify_one();
      }
    });
  }

  // Commit in arrival order, closing a generation after every sync_every
  // committed episodes; the actors keep running meanwhile.
  int published_for = episodes_done_;
  std::vector<EpisodeExperience> arrived;
  while (episodes_done_ < config_.episodes) {
    {
      std::unique_lock<std::mutex> lock(inbox_mu);
      inbox_cv.wait(lock, [&inbox] { return !inbox.empty(); });
      arrived.swap(inbox);
    }
    for (EpisodeExperience& experience : arrived) {
      CommitExperience(std::move(experience), &report);
      ++episodes_done_;
      if (episodes_done_ - published_for >= config_.sync_every) {
        EndGeneration(episodes_done_);
        published_for = episodes_done_;
      }
    }
    arrived.clear();
  }
  for (std::thread& t : threads) t.join();
  // The tail episodes since the last boundary close one more generation.
  if (published_for < episodes_done_) EndGeneration(episodes_done_);
  return report;
}

Status ApexTrainer::SaveFabricCheckpoint(int episodes_done,
                                         uint64_t seq) const {
  DPDP_TRACE_SPAN("train.checkpoint");
  // Payload layout: [agent blob][learner extras][replay]. The agent blob
  // leads so a serving ModelServer pointed at checkpoint_dir restores the
  // prefix of these very files.
  std::ostringstream payload;
  Status status = learner_.SaveState(&payload);
  if (!status.ok()) return status;
  status = SaveCheckpointPayload(CheckpointPath(config_.checkpoint_dir, seq),
                                 episodes_done, payload.str(), seq);
  if (status.ok()) Metrics().checkpoints->Add(1);
  return status;
}

Status ApexTrainer::ResumeFromCheckpoint(const std::string& path) {
  Result<CheckpointPayload> loaded = LoadCheckpointPayload(path);
  if (!loaded.ok()) return loaded.status();
  std::istringstream payload(loaded.value().payload);
  Status status = learner_.LoadState(&payload);
  if (!status.ok()) return status;
  episodes_done_ = loaded.value().info.episodes_done;
  seq_ = loaded.value().info.seq;
  generations_ = seq_;
  // Re-publish the restored weights at the restored seq so the next
  // generation's actors decide on exactly the snapshot an uninterrupted
  // run would have served them.
  learner_.Publish(seq_, episodes_done_, path);
  return Status::OK();
}

}  // namespace dpdp::train
