#include "workloads.h"

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dataset.h"
#include "exp/harness.h"
#include "obs/trace.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "rl/q_network.h"
#include "rl/state.h"
#include "serve/dispatch_service.h"
#include "serve/model_server.h"
#include "sim/environment.h"
#include "stpred/predictor.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dpdp::bench {
namespace {

// Inputs of the paper benches: bench/fig7_industry_scale.cc (dataset seed
// 7, 620 orders a day, 150 vehicles, test days from 30, training day 20,
// STD from the 4 preceding days, agent seed 23) and
// bench/fig6_large_scale.cc (150 orders, 50 vehicles, days 0-9, instance
// seed 42, STD of History(10, 4)).
//
// The world is the paper's for every workload seed: dataset seed 7, its
// campus and its demand model. The seed picks which of its days are
// dispatched: a stratified sample of the test-day pool [kFig7FirstDay,
// kFig7FirstDay + kDayPool), one day drawn with the seed from each of
// `count` equal strata, so every sample spreads over the whole pool and
// the samples' TC and per-decision work differ little. (Seeding the demand
// model instead gives every seed its own spatial skew, on which the
// init-weight policy opens very different fleets.) The train_fig6 instance
// is drawn with seed 42 + (s - 7), so seed 7 is its paper input.
constexpr uint64_t kPaperSeed = 7;
constexpr double kFig7OrdersPerDay = 620.0;
constexpr int kFig7Vehicles = 150;
constexpr int kFig7FirstDay = 30;
/// Days of the test-day pool; a multiple of every sample size.
constexpr int kDayPool = 48;
/// Test days of fig7_stddgn.
constexpr int kFig7Days = 8;
/// The warm-up input is the same for every seed, so the set-up does the
/// same warm-up work on every seed; days before kFig7FirstDay are in no
/// sample. The fig7 warm-up runs the first decisions of day 20 (the
/// Fig. 7 training day).
constexpr int kFig7WarmupDay = 20;
constexpr long kFig7WarmupDecisions = 300;
constexpr int kStdHistoryDays = 4;
constexpr uint64_t kAgentSeed = 23;

constexpr double kFig6OrdersPerDay = 150.0;
constexpr int kFig6Orders = 150;
constexpr int kFig6Vehicles = 50;
constexpr int kFig6DayLo = 0;
constexpr int kFig6DayHi = 9;
constexpr uint64_t kFig6PaperInstanceSeed = 42;
constexpr int kFig6StdDay = 10;
/// A timed block of train_fig6: greedy episodes of the warmed-up policy,
/// then training episodes, then one greedy evaluation of the trained
/// policy. The warmed-up policy's decisions are the workload's latency
/// samples; two episodes per block give each run enough of them for a p99
/// with 10 samples beyond it. (The trained policy's decisions cost what
/// that seed's training made of it: their p90 ranged 1.2-1.7 ms over ten
/// seeds.)
constexpr int kTrainEpisodesPerBlock = 4;
constexpr int kTrainLatencyEpisodes = 2;

/// serve_fig7: 12 campuses on the sample's 12 test days, two client
/// threads of six campuses each, one outstanding decision per campus. The
/// warm-up drives the same loop for a fixed number of decisions on the 12
/// days before kFig7FirstDay.
constexpr int kServeCampuses = 12;
constexpr int kServeDrivers = 2;
constexpr int kServeWarmupFirstDay = kFig7FirstDay - kServeCampuses;
constexpr int kServeWarmupDecisions = 30;
/// Threads of the untimed served-vs-local reference pass.
constexpr int kReferenceThreads = 3;

/// The sample's `count` test days, in pool order.
std::vector<int> SampleDays(uint64_t seed, int count) {
  Rng rng(Rng::DeriveSeed(seed, static_cast<uint64_t>(count)));
  const int stratum = kDayPool / count;
  std::vector<int> days;
  for (int k = 0; k < count; ++k) {
    days.push_back(kFig7FirstDay + k * stratum + rng.UniformInt(stratum));
  }
  return days;
}

std::string DayList(const std::vector<int>& days) {
  std::string out;
  for (const int day : days) {
    out += (out.empty() ? "" : ",") + std::to_string(day);
  }
  return out;
}

DpdpDataset::Config WorldConfig(double orders_per_day) {
  DpdpDataset::Config config =
      StandardDatasetConfig(kPaperSeed, orders_per_day);
  // Room for the test-day pool (days are generated lazily).
  config.num_days = kFig7FirstDay + kDayPool;
  return config;
}

/// Every field the measured path reads, set here instead of inherited:
/// Make*Config fills parallel_batch from DPDP_PARALLEL_BATCH.
AgentConfig StDdgnConfig() {
  AgentConfig config = MakeStDdgnConfig(kAgentSeed);
  config.parallel_batch = false;
  config.batch_pool = nullptr;
  return config;
}

serve::ServeConfig ServeSettings() {
  serve::ServeConfig config;
  config.max_batch = 16;
  config.max_wait_us = 500;
  // One outstanding decision per campus, so nothing is ever shed.
  config.queue_capacity = kServeCampuses;
  config.commit_us = 0;
  config.deadline_us = 0;
  config.chaos = serve::ChaosConfig{};
  return config;
}

SimulatorConfig SimSettings() {
  SimulatorConfig sim;
  sim.record_visits = false;
  sim.record_plan = true;  // The oracle replays every executed route.
  return sim;
}

void AddAgentConfig(const AgentConfig& c, Report* report) {
  report->Config("agent.seed", static_cast<double>(c.seed));
  report->Config("agent.hidden_dim", c.hidden_dim);
  report->Config("agent.num_heads", c.num_heads);
  report->Config("agent.attention_levels", c.attention_levels);
  report->Config("agent.num_neighbors", c.num_neighbors);
  report->Config("agent.use_graph", c.use_graph);
  report->Config("agent.use_st_score", c.use_st_score);
  report->Config("agent.double_dqn", c.double_dqn);
  report->Config("agent.use_constraint_embedding",
                 c.use_constraint_embedding);
  report->Config("agent.parallel_batch", c.parallel_batch);
  report->Config("agent.batch_size", c.batch_size);
  report->Config("agent.updates_per_episode", c.updates_per_episode);
  report->Config("agent.replay_capacity", c.replay_capacity);
}

void AddSimConfig(const SimulatorConfig& sim, Report* report) {
  report->Config("sim.record_plan", sim.record_plan);
  report->Config("sim.record_visits", sim.record_visits);
  report->Config("sim.buffer_window_min", sim.buffer_window_min);
  report->Config("sim.local_search_passes", sim.local_search_passes);
  report->Config("sim.decision_time_budget_s", sim.decision_time_budget_s);
  report->Config("sim.disruption", sim.disruption.any() ? "on" : "off");
}

/// One day to dispatch: the instance plus its simulator config, with the
/// day's predicted STD for the ST score.
struct Day {
  Instance instance;
  SimulatorConfig sim;
};

std::unique_ptr<Day> MakeDay(DpdpDataset* dataset, Instance instance,
                             int std_day) {
  auto day = std::make_unique<Day>();
  day->instance = std::move(instance);
  day->sim = SimSettings();
  day->sim.predicted_std =
      AverageStdPredictor()
          .Predict(dataset->History(std_day, kStdHistoryDays))
          .value();
  return day;
}

std::unique_ptr<Day> Fig7Day(DpdpDataset* dataset, int day) {
  return MakeDay(dataset,
                 dataset->FullDayInstance("day" + std::to_string(day), day,
                                          kFig7Vehicles),
                 day);
}

/// Timed-decision accumulators of one loop.
struct LoopStats {
  long decisions = 0;
  long feasible = 0;        ///< Sum of feasible vehicles.
  long planned = 0;         ///< Sum of vehicles planned.
  std::vector<Sample> samples;
  int64_t last_end_ns = 0;
  /// Set on single-threaded timed loops: ticked after every decision.
  CpuRotation* rotation = nullptr;

  void Record(const DispatchContext& context, int64_t start_ns,
              int64_t end_ns) {
    ++decisions;
    feasible += context.num_feasible;
    planned += static_cast<long>(context.options.size());
    samples.push_back({end_ns, Seconds(start_ns, end_ns)});
    last_end_ns = end_ns;
  }
};

/// One decision on the Environment step API: advance, decide, apply,
/// then observe the executed vehicle. The latency sample runs from
/// AdvanceToDecision entry to Apply return. Returns false when the
/// episode ended instead.
template <typename Decide, typename Observe>
bool Step(Environment* env, Decide& decide, Observe& observe, Tracer* tracer,
          LoopStats* stats) {
  const int64_t t0 = MonotonicNanos();
  if (!env->AdvanceToDecision()) {
    stats->last_end_ns = MonotonicNanos();
    return false;
  }
  const int64_t t1 = MonotonicNanos();
  tracer->Step("sim.advance", t0, t1);
  const DispatchContext& context = env->ObserveDecision();
  const int vehicle = decide(context, tracer);
  const int64_t t2 = MonotonicNanos();
  const int executed = env->Apply(vehicle, Seconds(t1, t2));
  const int64_t t3 = MonotonicNanos();
  tracer->Step("sim.apply", t2, t3);
  tracer->EndDecision();
  stats->Record(context, t0, t3);
  observe(context, executed);
  if (stats->rotation != nullptr) stats->rotation->Tick();
  return true;
}

/// Runs one episode from Reset. With `deadline_ns` > 0 the episode is cut
/// after the first decision that ends past it. Returns true when the
/// episode finished.
template <typename Decide, typename Observe>
bool RunEpisode(Environment* env, Decide& decide, Observe& observe,
                Tracer* tracer, LoopStats* stats, int64_t deadline_ns) {
  env->Reset();
  while (Step(env, decide, observe, tracer, stats)) {
    if (deadline_ns > 0 && stats->last_end_ns >= deadline_ns) return false;
  }
  return true;
}

auto NoObserve = [](const DispatchContext&, int) {};

/// The untimed warm-up: the first `decisions` decisions of an episode.
template <typename Decide>
void WarmUp(Environment* env, Decide& decide, long decisions) {
  Tracer off(false);
  CpuRotation rotation;
  LoopStats scratch;
  scratch.rotation = &rotation;
  env->Reset();
  while (scratch.decisions < decisions &&
         Step(env, decide, NoObserve, &off, &scratch)) {
  }
}

/// One set-up, from workload start to the first timed decision: the world
/// build (dataset days, instances, STD prediction), then the construction
/// of the policy and the service and the untimed warm-up pass.
struct SetupTimes {
  int64_t start_ns = 0;
  int64_t world_end_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return Seconds(start_ns, end_ns); }
};

template <typename BuildWorld, typename Prepare>
SetupTimes MeasureSetup(BuildWorld&& build_world, Prepare&& prepare) {
  SetupTimes times;
  times.start_ns = MonotonicNanos();
  build_world();
  times.world_end_ns = MonotonicNanos();
  prepare();
  times.end_ns = MonotonicNanos();
  return times;
}

/// Forward calls the benchmark can attribute to decisions: their rows and
/// the dense rows^2 x 8 byte attention mask each one builds.
struct ForwardRows {
  double calls = 0.0;
  double rows = 0.0;
  double mask_bytes = 0.0;

  void Add(double call_rows) {
    calls += 1.0;
    rows += call_rows;
    mask_bytes += call_rows * call_rows * 8.0;
  }
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const Tracer* tracer = nullptr;
  const LoopStats* loop = nullptr;
  const RegistryDelta* registry = nullptr;
  double wall_s = 0.0;
  SetupTimes setup;
  ForwardRows forward;
  int drivers = 0;
  double client_busy_s = 0.0;
  double training_s = 0.0;  ///< Training episodes, rollout plus Learn.
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics measured in this process (nn.forward_calls,
/// nn.forward_s and obs.trace_overhead_frac come from the trace file and
/// the untraced run; run.py adds them).
void AddLayerMetrics(const LayerInputs& in, Report* report) {
  const Tracer& t = *in.tracer;
  const RegistryDelta& reg = *in.registry;
  const Tracer::Stats& advance = t.Get("sim.advance");
  report->Metric("sim.advance_calls", static_cast<double>(advance.count),
                 "count");
  report->Metric("sim.advance_s", advance.total_s, "s");
  report->Metric("sim.advance_p50_ms", PercentileMs(advance.samples_s, 0.50),
                 "ms");
  report->Metric("sim.advance_p99_ms", PercentileMs(advance.samples_s, 0.99),
                 "ms");
  double decision_s = 0.0;
  for (const Sample& sample : in.loop->samples) decision_s += sample.latency_s;
  report->Metric("sim.advance_frac", Ratio(advance.total_s, decision_s),
                 "frac");
  report->Metric("sim.feasible_frac",
                 Ratio(static_cast<double>(in.loop->feasible),
                       static_cast<double>(in.loop->planned)),
                 "frac");
  report->Metric("sim.apply_s", t.Get("sim.apply").total_s, "s");
  report->Metric("policy.choose_s", t.Get("policy.choose").total_s, "s");
  report->Metric("rl.state_s", t.Get("rl.state").total_s, "s");
  report->Metric("rl.adjacency_s", t.Get("rl.adjacency").total_s, "s");
  report->Metric("rl.select_s", t.Get("rl.select").total_s, "s");
  report->Metric("nn.forward_rows", Ratio(in.forward.rows, in.forward.calls),
                 "count");
  report->Metric("nn.mask_bytes",
                 Ratio(in.forward.mask_bytes, in.forward.calls), "bytes");
  report->Metric("nn.gemm_flops", reg.Counter("nn.gemm_flops"), "count");
  const double eval_s = reg.HistogramSum("serve.eval_latency_s");
  report->Metric("serve.roundtrip_s", t.Get("serve.roundtrip").total_s, "s");
  report->Metric("serve.queue_wait_s", reg.HistogramSum("serve.queue_wait_s"),
                 "s");
  report->Metric("serve.eval_s", eval_s, "s");
  report->Metric("serve.batch_items",
                 Ratio(reg.Counter("serve.batched_items"),
                       reg.Counter("serve.batches")),
                 "count");
  report->Metric("serve.busy_frac", Ratio(eval_s, in.wall_s), "frac");
  report->Metric("serve.client_busy_frac",
                 Ratio(in.client_busy_s, in.drivers * in.wall_s), "frac");
  const Tracer::Stats& learn = t.Get("rl.learn");
  report->Metric("rl.learn_calls", static_cast<double>(learn.count), "count");
  report->Metric("rl.learn_s", learn.total_s, "s");
  report->Metric("rl.learn_frac", Ratio(learn.total_s, in.wall_s), "frac");
  report->Metric("rl.learn_train_frac", Ratio(learn.total_s, in.training_s),
                 "frac");
  report->Metric("rl.train_batch_s",
                 reg.HistogramSum("rl.train_batch_latency_s"), "s");
  report->Metric("nn.adam_steps", reg.Counter("nn.adam_steps"), "count");
  report->Metric("datagen.world_s",
                 Seconds(in.setup.start_ns, in.setup.world_end_ns), "s");
  report->Metric("setup.warmup_s",
                 Seconds(in.setup.world_end_ns, in.setup.end_ns), "s");
}

/// End-to-end metrics shared by every workload; the timed region is
/// [start_ns, end_ns) and `latency` holds the latency samples.
void AddEndToEnd(const SetupTimes& setup, const LoopStats& loop,
                 const LoopStats& latency, int64_t start_ns, int64_t end_ns,
                 const std::vector<double>& window_rates, double total_cost,
                 double peak_rss_mb, Report* report) {
  report->Metric("setup_s", setup.seconds(), "s");
  AddDecisionMetrics(latency.samples, loop.decisions, start_ns, end_ns,
                     window_rates, report);
  report->Metric("total_cost", total_cost, "cost");
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
  report->Metric("timed_s", Seconds(start_ns, end_ns), "s");
  report->Metric("failed_frac",
                 Ratio(static_cast<double>(report->failed),
                       static_cast<double>(report->attempted)),
                 "frac");
}

/// Starts span recording for the timed region. The library's spans of
/// set-up and warm-up are dropped; the set-up's two phases get one span
/// each.
void BeginTrace(const Options& options, const SetupTimes& setup,
                Tracer* tracer) {
  obs::DiscardTrace();
  obs::SetTraceEnabled(options.trace);
  tracer->Span("datagen.world", setup.start_ns, setup.world_end_ns);
  tracer->Span("setup.warmup", setup.world_end_ns, setup.end_ns);
}

void CheckEqual(const std::string& name, double got, double want,
                const std::string& what, Report* report) {
  report->Check(name, got == want,
                what + ": " + Num(got) + " vs " + Num(want));
}

// --------------------------------------------------------------------------
// fig7_stddgn: one thread, the Fig. 7 test days in a loop.

/// Act's greedy path cut into its five calls, on a network holding the
/// agent's exported weights. The traced fig7_stddgn run decides with this
/// so each call gets its own span; the untraced run calls Act itself.
class GreedyPieces {
 public:
  GreedyPieces(const AgentConfig& config, DqnFleetAgent* agent)
      : config_(config) {
    Rng scratch(config.seed);
    net_ = MakeQNetwork(config, &scratch);
    const std::vector<nn::Matrix> weights = agent->ExportPolicyWeights();
    const std::vector<nn::Parameter*> params = net_->Params();
    DPDP_CHECK(params.size() == weights.size());
    for (size_t i = 0; i < params.size(); ++i) params[i]->value = weights[i];
  }

  int operator()(const DispatchContext& context, Tracer* tracer) {
    const int64_t t0 = MonotonicNanos();
    const FleetState state = BuildFleetState(context, config_);
    DPDP_CHECK(!state.FeasibleIndices().empty());
    const std::vector<int> idx = InferenceIndices(state, config_);
    const int64_t t1 = MonotonicNanos();
    batch_.Clear();
    AppendSubFleetInputs(state, idx, config_.use_graph, config_.num_neighbors,
                         &batch_);
    const int64_t t2 = MonotonicNanos();
    const nn::Matrix& q = net_->EvaluateBatch(batch_);
    const int64_t t3 = MonotonicNanos();
    const GreedyQChoice choice = ArgmaxFeasibleQ(state, idx, q);
    const int64_t t4 = MonotonicNanos();
    tracer->Step("rl.state", t0, t1);
    tracer->Step("rl.adjacency", t1, t2);
    tracer->Step("nn.evaluate_batch", t2, t3);
    tracer->Step("rl.select", t3, t4);
    forward.Add(batch_.total_rows());
    return choice.vehicle;  // -1 degrades in Apply, as Act's refusal does.
  }

  ForwardRows forward;

 private:
  AgentConfig config_;
  std::unique_ptr<FleetQNetwork> net_;
  DecisionBatch batch_;
};

void RunFig7(const Options& options, Report* report) {
  const AgentConfig config = StDdgnConfig();
  const std::vector<int> test_days = SampleDays(options.seed, kFig7Days);
  Tracer off(false);
  std::unique_ptr<DpdpDataset> dataset;
  std::vector<std::unique_ptr<Day>> days;
  std::unique_ptr<DqnFleetAgent> agent;
  std::unique_ptr<GreedyPieces> pieces;
  // Decides with Act (untraced) or with Act's pieces (traced).
  auto decide = [&](const DispatchContext& context, Tracer* tracer) {
    if (pieces != nullptr) return (*pieces)(context, tracer);
    return agent->Act(context);
  };

  std::unique_ptr<Day> warmup;
  const SetupTimes setup = MeasureSetup(
      [&] {
        dataset = std::make_unique<DpdpDataset>(
            WorldConfig(kFig7OrdersPerDay));
        for (const int day : test_days) {
          days.push_back(Fig7Day(dataset.get(), day));
        }
        warmup = Fig7Day(dataset.get(), kFig7WarmupDay);
      },
      [&] {
        agent = std::make_unique<DqnFleetAgent>(config, "ST-DDGN");
        agent->set_training(false);
        if (options.trace) {
          pieces = std::make_unique<GreedyPieces>(config, agent.get());
        }
        Environment warm_env(&warmup->instance, warmup->sim);
        WarmUp(&warm_env, decide, kFig7WarmupDecisions);
      });
  if (options.setup_only) {
    report->Metric("setup_s", setup.seconds(), "s");
    return;
  }
  if (pieces != nullptr) pieces->forward = ForwardRows{};

  std::vector<std::unique_ptr<Environment>> envs;
  for (const auto& day : days) {
    envs.push_back(std::make_unique<Environment>(&day->instance, day->sim));
  }
  std::vector<std::vector<EpisodeResult>> done(envs.size());

  Tracer tracer(options.trace);
  BeginTrace(options, setup, &tracer);
  RegistryDelta registry;
  CpuRotation rotation;
  LoopStats loop;
  loop.rotation = &rotation;
  const int64_t start = MonotonicNanos();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  for (bool cut = false; !cut;) {
    for (size_t d = 0; d < envs.size() && !cut; ++d) {
      cut = !RunEpisode(envs[d].get(), decide, NoObserve, &tracer, &loop,
                        deadline);
      CountOrders(envs[d]->result(), &report->attempted, &report->failed);
      if (!cut) done[d].push_back(envs[d]->result());
    }
  }
  const double wall_s = Seconds(start, loop.last_end_ns);
  registry.Stop();
  obs::SetTraceEnabled(false);
  const double peak_rss_mb = PeakRssMb();

  // Untimed: finish any test day the timed region never completed, so
  // total_cost always covers every day once.
  LoopStats untimed;
  for (size_t d = 0; d < envs.size(); ++d) {
    if (!done[d].empty()) continue;
    DPDP_CHECK(RunEpisode(envs[d].get(), decide, NoObserve, &off, &untimed, 0));
    done[d].push_back(envs[d]->result());
  }

  EpisodeChecker checker;
  double total_cost = 0.0;
  bool repeats_identical = true;
  long episodes = 0;
  for (size_t d = 0; d < envs.size(); ++d) {
    total_cost += done[d][0].total_cost;
    for (const EpisodeResult& r : done[d]) {
      checker.Add(days[d]->instance, r,
                  "day " + std::to_string(test_days[d]));
      repeats_identical &= r.total_cost == done[d][0].total_cost;
      ++episodes;
    }
  }
  checker.Finish(report);
  report->Check("repeats_identical", repeats_identical,
                std::to_string(episodes) +
                    " episodes; every repeat of a day has the same TC");
  CheckEqual("registry_sim_decisions", registry.Counter("sim.decisions"),
             static_cast<double>(loop.decisions),
             "sim.decisions delta vs timed decisions", report);

  report->Config("policy", options.trace
                               ? "ST-DDGN greedy, Act split into its calls"
                               : "ST-DDGN greedy (Act)");
  report->Config("loop", "in-process, 1 thread, step API");
  report->Config("days", DayList(test_days));
  report->Config("warmup", "first " + std::to_string(kFig7WarmupDecisions) +
                              " decisions of day " +
                              std::to_string(kFig7WarmupDay));
  report->Config("orders_per_day", kFig7OrdersPerDay);
  report->Config("vehicles", kFig7Vehicles);
  report->Config("predicted_std", "AverageStdPredictor, 4 days");
  AddAgentConfig(config, report);
  AddSimConfig(days[0]->sim, report);

  AddEndToEnd(setup, loop, loop, start, loop.last_end_ns, {}, total_cost,
              peak_rss_mb, report);
  if (options.trace) {
    LayerInputs in;
    in.tracer = &tracer;
    in.loop = &loop;
    in.registry = &registry;
    in.wall_s = wall_s;
    in.setup = setup;
    if (pieces != nullptr) in.forward = pieces->forward;
    AddLayerMetrics(in, report);
  }
}

// --------------------------------------------------------------------------
// serve_fig7: closed-loop campuses against one DispatchService.

struct Campus {
  const Day* day = nullptr;
  std::unique_ptr<Environment> env;
  std::future<serve::ServeReply> reply;
  int64_t advance_start_ns = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  Tracer::Chain chain;
  std::vector<EpisodeResult> done;
  long decisions = 0;
};

std::vector<std::unique_ptr<Campus>> MakeCampuses(
    const std::vector<std::unique_ptr<Day>>& days) {
  std::vector<std::unique_ptr<Campus>> campuses;
  for (const auto& day : days) {
    auto campus = std::make_unique<Campus>();
    campus->day = day.get();
    campus->env = std::make_unique<Environment>(&day->instance, day->sim);
    campuses.push_back(std::move(campus));
  }
  return campuses;
}

/// When a campus stops launching decisions: in the warm-up after a fixed
/// number of decisions; in the timed run once the deadline has passed and
/// it has finished at least one episode (its day then has a TC to check).
struct RetireRule {
  int64_t deadline_ns = 0;
  long max_decisions = 0;
};

/// What one client thread measured.
struct DriverResult {
  explicit DriverResult(bool trace) : tracer(trace) {}
  Tracer tracer;
  LoopStats timed;  ///< Decisions whose Apply returned by the deadline.
  double client_busy_s = 0.0;
  long sheds = 0;
  long deadline_exceeded = 0;
  long attempted = 0;
  long failed = 0;
};

/// One client thread: keeps one decision outstanding per campus and waits
/// on the oldest. The service answers in submission order, so the oldest
/// reply is the next one to arrive.
void Drive(const std::vector<Campus*>& campuses,
           serve::DecisionService* service, const RetireRule& rule,
           DriverResult* out) {
  auto retired = [&](const Campus& c) {
    if (rule.max_decisions > 0 && c.decisions >= rule.max_decisions) {
      return true;
    }
    return rule.deadline_ns > 0 && !c.done.empty() &&
           MonotonicNanos() >= rule.deadline_ns;
  };
  // Advances `c` to its next decision and submits it, restarting its day
  // when an episode ends. False once the campus retires.
  auto launch = [&](Campus* c) {
    for (;;) {
      if (retired(*c)) {
        CountOrders(c->env->result(), &out->attempted, &out->failed);
        return false;
      }
      const int64_t t0 = MonotonicNanos();
      if (c->env->AdvanceToDecision()) {
        const int64_t t1 = MonotonicNanos();
        c->reply = service->Submit(c->env->ObserveDecision());
        const int64_t t2 = MonotonicNanos();
        c->advance_start_ns = t0;
        c->submit_start_ns = t1;
        c->submit_end_ns = t2;
        out->tracer.Step(&c->chain, "sim.advance", t0, t1);
        out->tracer.Step(&c->chain, "serve.submit", t1, t2);
        return true;
      }
      c->done.push_back(c->env->result());
      CountOrders(c->done.back(), &out->attempted, &out->failed);
      c->env->Reset();
    }
  };

  std::deque<Campus*> inflight;
  for (Campus* c : campuses) {
    c->env->Reset();
    if (launch(c)) inflight.push_back(c);
  }
  while (!inflight.empty()) {
    Campus* c = inflight.front();
    inflight.pop_front();
    const int64_t w0 = MonotonicNanos();
    const serve::ServeReply reply = c->reply.get();
    const int64_t w1 = MonotonicNanos();
    c->env->Apply(reply.vehicle, Seconds(c->submit_start_ns, w1));
    const int64_t t3 = MonotonicNanos();
    ++c->decisions;
    out->sheds += reply.shed ? 1 : 0;
    out->deadline_exceeded += reply.deadline_exceeded ? 1 : 0;
    if (rule.deadline_ns == 0 || t3 <= rule.deadline_ns) {
      out->timed.Record(c->env->ObserveDecision(), c->advance_start_ns, t3);
      out->client_busy_s += Seconds(c->advance_start_ns, c->submit_end_ns) +
                            Seconds(w1, t3);
      out->tracer.Step(&c->chain, "serve.reply_wait", w0, w1);
      out->tracer.Step(&c->chain, "sim.apply", w1, t3);
      out->tracer.Stat("serve.roundtrip", Seconds(c->submit_start_ns, w1));
      out->tracer.EndDecision(&c->chain);
    } else {
      Tracer::Discard(&c->chain);
    }
    if (launch(c)) inflight.push_back(c);
  }
}

/// Runs `campuses` on kServeDrivers client threads (campus i on thread
/// i % kServeDrivers). `while_running` runs on the calling thread once
/// the clients have started.
template <typename WhileRunning>
std::vector<std::unique_ptr<DriverResult>> RunClients(
    const std::vector<std::unique_ptr<Campus>>& campuses,
    serve::DecisionService* service, const RetireRule& rule, bool trace,
    WhileRunning&& while_running) {
  std::vector<std::vector<Campus*>> share(kServeDrivers);
  for (size_t i = 0; i < campuses.size(); ++i) {
    share[i % kServeDrivers].push_back(campuses[i].get());
  }
  std::vector<std::unique_ptr<DriverResult>> results;
  for (int t = 0; t < kServeDrivers; ++t) {
    results.push_back(std::make_unique<DriverResult>(trace));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kServeDrivers; ++t) {
    threads.emplace_back(Drive, std::cref(share[t]), service, rule,
                         results[t].get());
  }
  while_running();
  for (std::thread& thread : threads) thread.join();
  return results;
}

/// In-process greedy ST-DDGN TC of each day with the init weights, on
/// kReferenceThreads threads: what every served campus must reproduce.
std::vector<double> LocalGreedyCosts(
    const std::vector<std::unique_ptr<Day>>& days,
    const AgentConfig& config) {
  std::vector<double> costs(days.size(), 0.0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kReferenceThreads; ++w) {
    workers.emplace_back([&, w] {
      Tracer off(false);
      for (size_t i = w; i < days.size(); i += kReferenceThreads) {
        DqnFleetAgent agent(config, "local");
        auto act = [&](const DispatchContext& context, Tracer*) {
          return agent.Act(context);
        };
        Environment env(&days[i]->instance, days[i]->sim);
        LoopStats scratch;
        DPDP_CHECK(RunEpisode(&env, act, NoObserve, &off, &scratch, 0));
        costs[i] = env.result().total_cost;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return costs;
}

void RunServe(const Options& options, Report* report) {
  const AgentConfig config = StDdgnConfig();
  const std::vector<int> test_days = SampleDays(options.seed, kServeCampuses);
  const serve::ServeConfig serve_config = ServeSettings();
  std::unique_ptr<DpdpDataset> dataset;
  std::vector<std::unique_ptr<Day>> days;
  std::vector<std::unique_ptr<Day>> warmup;
  std::unique_ptr<serve::ModelServer> models;
  std::unique_ptr<serve::DispatchService> service;
  const SetupTimes setup = MeasureSetup(
      [&] {
        dataset = std::make_unique<DpdpDataset>(
            WorldConfig(kFig7OrdersPerDay));
        for (int c = 0; c < kServeCampuses; ++c) {
          days.push_back(Fig7Day(dataset.get(), test_days[c]));
          warmup.push_back(
              Fig7Day(dataset.get(), kServeWarmupFirstDay + c));
        }
      },
      [&] {
        models = std::make_unique<serve::ModelServer>(config);
        service = std::make_unique<serve::DispatchService>(serve_config,
                                                           models.get());
        // Warm-up, untimed. First one batch holding every campus's first
        // decision (all advanced before any is submitted): the service's
        // evaluation buffers reach their full-batch size here, rather than
        // whenever thread timing first stacks that many items, so the
        // process peak does not depend on timing. Then the closed loop
        // itself for a fixed number of decisions per campus.
        const auto warm = MakeCampuses(warmup);
        for (const auto& c : warm) {
          c->env->Reset();
          DPDP_CHECK(c->env->AdvanceToDecision());
        }
        std::vector<std::future<serve::ServeReply>> burst;
        for (const auto& c : warm) {
          burst.push_back(service->Submit(c->env->ObserveDecision()));
        }
        for (size_t i = 0; i < warm.size(); ++i) {
          warm[i]->env->Apply(burst[i].get().vehicle);
        }
        RetireRule warm_rule;
        warm_rule.max_decisions = kServeWarmupDecisions;
        RunClients(warm, service.get(), warm_rule, /*trace=*/false, [] {});
      });
  if (options.setup_only) {
    report->Metric("setup_s", setup.seconds(), "s");
    return;
  }

  const std::vector<std::unique_ptr<Campus>> campuses = MakeCampuses(days);
  Tracer tracer(options.trace);
  BeginTrace(options, setup, &tracer);
  RegistryDelta timed_registry;
  RegistryDelta session_registry;
  double peak_rss_mb = 0.0;
  const int64_t start = MonotonicNanos();
  RetireRule rule;
  rule.deadline_ns = start + static_cast<int64_t>(options.seconds * 1e9);
  const auto results = RunClients(
      campuses, service.get(), rule, options.trace, [&] {
        // The timed region is the fixed window in which all campuses are
        // live; the clients only drain after it.
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(rule.deadline_ns)));
        timed_registry.Stop();
        obs::SetTraceEnabled(false);
        peak_rss_mb = PeakRssMb();
      });
  service->Stop();
  session_registry.Stop();
  const double wall_s = Seconds(start, rule.deadline_ns);

  LoopStats loop;
  double client_busy_s = 0.0;
  long sheds = 0;
  long deadline_exceeded = 0;
  for (const auto& r : results) {
    tracer.Merge(r->tracer);
    loop.decisions += r->timed.decisions;
    loop.feasible += r->timed.feasible;
    loop.planned += r->timed.planned;
    loop.samples.insert(loop.samples.end(), r->timed.samples.begin(),
                        r->timed.samples.end());
    client_busy_s += r->client_busy_s;
    sheds += r->sheds;
    deadline_exceeded += r->deadline_exceeded;
    report->attempted += r->attempted;
    report->failed += r->failed + r->sheds + r->deadline_exceeded;
  }

  // Untimed checks. Served decisions equal local ones: each campus's TC
  // is the in-process greedy TC of its day under the same weights.
  const std::vector<double> local = LocalGreedyCosts(days, config);
  EpisodeChecker checker;
  double total_cost = 0.0;
  long served = 0;
  bool repeats_identical = true;
  std::string mismatch;
  for (size_t i = 0; i < campuses.size(); ++i) {
    const Campus& c = *campuses[i];
    served += c.decisions;
    total_cost += c.done[0].total_cost;
    for (const EpisodeResult& r : c.done) {
      checker.Add(c.day->instance, r, "campus " + std::to_string(i));
      repeats_identical &= r.total_cost == c.done[0].total_cost;
    }
    if (c.done[0].total_cost != local[i] && mismatch.empty()) {
      mismatch = "campus " + std::to_string(i) + ": served TC " +
                 Num(c.done[0].total_cost) + ", local TC " + Num(local[i]);
    }
  }
  checker.Finish(report);
  report->Check("repeats_identical", repeats_identical,
                "every repeat of a campus day has the same TC");
  report->Check("served_equals_local", mismatch.empty(),
                mismatch.empty() ? std::to_string(campuses.size()) +
                                       " campuses, TC bit-identical"
                                 : mismatch);
  CheckEqual("registry_sim_decisions",
             session_registry.Counter("sim.decisions"),
             static_cast<double>(served),
             "sim.decisions delta vs served decisions", report);
  CheckEqual("registry_serve_batched_items",
             session_registry.Counter("serve.batched_items"),
             static_cast<double>(served - sheds),
             "serve.batched_items delta vs model-served decisions", report);
  CheckEqual("registry_serve_shed", session_registry.Counter("serve.shed"),
             0.0, "serve.shed delta", report);

  report->Config("policy", "ST-DDGN greedy, ModelServer seq-0 snapshot");
  report->Config("loop", "closed loop, 12 campuses, 1 outstanding decision "
                         "each, 2 client threads + 1 service loop");
  report->Config("days", DayList(test_days));
  report->Config("warmup", "days " + std::to_string(kServeWarmupFirstDay) +
                               "-" + std::to_string(kFig7FirstDay - 1) +
                               ", " + std::to_string(kServeWarmupDecisions) +
                               " decisions each");
  report->Config("vehicles", kFig7Vehicles);
  report->Config("orders_per_day", kFig7OrdersPerDay);
  report->Config("serve.max_batch", serve_config.max_batch);
  report->Config("serve.max_wait_us",
                 static_cast<double>(serve_config.max_wait_us));
  report->Config("serve.queue_capacity", serve_config.queue_capacity);
  report->Config("serve.commit_us",
                 static_cast<double>(serve_config.commit_us));
  report->Config("serve.deadline_us",
                 static_cast<double>(serve_config.deadline_us));
  report->Config("serve.chaos", serve_config.chaos.any() ? "on" : "off");
  AddAgentConfig(config, report);
  AddSimConfig(days[0]->sim, report);

  AddEndToEnd(setup, loop, loop, start, rule.deadline_ns, {}, total_cost,
              peak_rss_mb, report);
  report->Metric("sheds", static_cast<double>(sheds), "count");
  report->Metric("deadline_exceeded", static_cast<double>(deadline_exceeded),
                 "count");
  if (options.trace) {
    LayerInputs in;
    in.tracer = &tracer;
    in.loop = &loop;
    in.registry = &timed_registry;
    in.wall_s = wall_s;
    in.setup = setup;
    // The service stacks each batch's sub-fleets; its composition is not
    // visible here, so the mask uses the mean rows per batch.
    in.forward.calls = timed_registry.Counter("serve.batches");
    in.forward.rows = static_cast<double>(loop.feasible);
    const double rows_per_call = Ratio(in.forward.rows, in.forward.calls);
    in.forward.mask_bytes = in.forward.calls * rows_per_call * rows_per_call *
                            8.0;
    in.drivers = kServeDrivers;
    in.client_busy_s = client_busy_s;
    AddLayerMetrics(in, report);
  }
}

// --------------------------------------------------------------------------
// train_fig6: local ST-DDGN training on the Fig. 6 instance.

void RunTrain(const Options& options, Report* report) {
  const AgentConfig config = StDdgnConfig();
  Tracer off(false);
  std::unique_ptr<DpdpDataset> dataset;
  std::unique_ptr<Day> day;
  std::unique_ptr<DqnFleetAgent> agent;
  std::unique_ptr<Environment> env;
  const uint64_t instance_seed =
      kFig6PaperInstanceSeed + (options.seed - kPaperSeed);
  ForwardRows greedy_forward;
  auto act = [&](const DispatchContext& context, Tracer* tracer) {
    const int64_t start = tracer->enabled() ? MonotonicNanos() : 0;
    // A greedy Act scores exactly the feasible sub-fleet.
    if (!agent->training()) greedy_forward.Add(context.num_feasible);
    const int vehicle = agent->Act(context);
    if (tracer->enabled()) {
      tracer->Step("policy.choose", start, MonotonicNanos());
    }
    return vehicle;
  };
  auto observe = [&](const DispatchContext& context, int executed) {
    agent->Observe(context, executed);
  };
  // One training episode: the rollout, then Learn on its result.
  auto train_episode = [&](Tracer* tracer, LoopStats* stats) {
    DPDP_CHECK(RunEpisode(env.get(), act, observe, tracer, stats, 0));
    if (stats->rotation != nullptr) stats->rotation->Tick();
    const int64_t learn_start = MonotonicNanos();
    agent->Learn(env->result());
    tracer->Span("rl.learn", learn_start, MonotonicNanos());
  };

  EpisodeResult warm_result;
  std::string warm_state;
  const SetupTimes setup = MeasureSetup(
      [&] {
        dataset = std::make_unique<DpdpDataset>(
            WorldConfig(kFig6OrdersPerDay));
        day = MakeDay(dataset.get(),
                      dataset->SampleInstance("large0", kFig6Orders,
                                              kFig6Vehicles, kFig6DayLo,
                                              kFig6DayHi, instance_seed),
                      kFig6StdDay);
      },
      [&] {
        agent = std::make_unique<DqnFleetAgent>(config, "ST-DDGN");
        agent->set_training(true);
        env = std::make_unique<Environment>(&day->instance, day->sim);
        // The warm-up is the first training episode: it fills replay past
        // batch_size, so every timed episode ends in learner updates.
        CpuRotation rotation;
        LoopStats scratch;
        scratch.rotation = &rotation;
        train_episode(&off, &scratch);
        warm_result = env->result();
        std::ostringstream state;
        DPDP_CHECK_OK(agent->SaveState(&state));
        warm_state = state.str();
      });
  if (options.setup_only) {
    report->Metric("setup_s", setup.seconds(), "s");
    return;
  }

  // Timed: blocks of kTrainLatencyEpisodes greedy episodes of the
  // warmed-up policy, kTrainEpisodesPerBlock training episodes and one
  // greedy evaluation, each block restarting from the warmed-up state, so
  // every block does the same work and ends in the same evaluation TC. The
  // run stops at the first block boundary past the deadline.
  Tracer tracer(options.trace);
  BeginTrace(options, setup, &tracer);
  RegistryDelta registry;
  CpuRotation rotation;
  LoopStats loop;
  loop.rotation = &rotation;
  LoopStats greedy;  // Latency samples: the warmed-up policy's decisions.
  std::vector<EpisodeResult> episodes;
  std::vector<double> greedy_costs;
  std::vector<double> eval_costs;
  std::vector<double> block_rates;
  double training_s = 0.0;
  const int64_t start = MonotonicNanos();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  do {
    const int64_t block_start = MonotonicNanos();
    const long block_decisions = loop.decisions;
    std::istringstream state(warm_state);
    DPDP_CHECK_OK(agent->LoadState(&state));
    agent->set_training(false);
    for (int e = 0; e < kTrainLatencyEpisodes; ++e) {
      const size_t first = loop.samples.size();
      DPDP_CHECK(RunEpisode(env.get(), act, observe, &tracer, &loop, 0));
      greedy.samples.insert(greedy.samples.end(),
                            loop.samples.begin() + first, loop.samples.end());
      episodes.push_back(env->result());
      CountOrders(env->result(), &report->attempted, &report->failed);
      greedy_costs.push_back(env->result().total_cost);
    }
    agent->set_training(true);
    for (int e = 0; e < kTrainEpisodesPerBlock; ++e) {
      const int64_t episode_start = MonotonicNanos();
      train_episode(&tracer, &loop);
      training_s += Seconds(episode_start, MonotonicNanos());
      episodes.push_back(env->result());
      CountOrders(env->result(), &report->attempted, &report->failed);
    }
    agent->FinalizeTraining();
    agent->set_training(false);
    DPDP_CHECK(RunEpisode(env.get(), act, observe, &tracer, &loop, 0));
    episodes.push_back(env->result());
    CountOrders(env->result(), &report->attempted, &report->failed);
    eval_costs.push_back(env->result().total_cost);
    block_rates.push_back(
        static_cast<double>(loop.decisions - block_decisions) /
        Seconds(block_start, loop.last_end_ns));
  } while (loop.last_end_ns < deadline);
  const int64_t end = loop.last_end_ns;
  const double wall_s = Seconds(start, end);
  registry.Stop();
  obs::SetTraceEnabled(false);
  const double peak_rss_mb = PeakRssMb();

  EpisodeChecker checker;
  checker.Add(day->instance, warm_result, "warm-up episode");
  for (size_t i = 0; i < episodes.size(); ++i) {
    checker.Add(day->instance, episodes[i], "episode " + std::to_string(i));
  }
  checker.Finish(report);
  bool repeats_identical = true;
  for (const double cost : greedy_costs) {
    repeats_identical &= cost == greedy_costs[0];
  }
  for (const double cost : eval_costs) {
    repeats_identical &= cost == eval_costs[0];
  }
  report->Check("repeats_identical", repeats_identical,
                std::to_string(greedy_costs.size()) +
                    " warmed-up greedy and " +
                    std::to_string(eval_costs.size()) +
                    " trained evaluation episodes, each kind with one TC");
  CheckEqual("registry_sim_decisions", registry.Counter("sim.decisions"),
             static_cast<double>(loop.decisions),
             "sim.decisions delta vs timed decisions", report);
  CheckEqual("registry_adam_steps", registry.Counter("nn.adam_steps"),
             registry.Counter("rl.train_batches"),
             "nn.adam_steps delta vs rl.train_batches delta", report);
  report->Check("learner_ran", registry.Counter("rl.train_batches") > 0,
                "rl.train_batches delta " +
                    Num(registry.Counter("rl.train_batches")));

  report->Config("policy", "ST-DDGN training (Act/Observe/Learn), then "
                           "greedy evaluation");
  report->Config("loop", "in-process, 1 thread, step API; blocks of " +
                             std::to_string(kTrainLatencyEpisodes) +
                             " greedy episodes of the warmed-up policy + " +
                             std::to_string(kTrainEpisodesPerBlock) +
                             " training + 1 greedy evaluation episode");
  report->Config("instance", "SampleInstance(150 orders, 50 vehicles, days "
                             "0-9, seed " +
                                 std::to_string(instance_seed) + ")");
  report->Config("predicted_std", "AverageStdPredictor over History(10, 4)");
  AddAgentConfig(config, report);
  AddSimConfig(day->sim, report);

  AddEndToEnd(setup, loop, greedy, start, end, block_rates, eval_costs[0],
              peak_rss_mb, report);
  report->Metric("blocks", static_cast<double>(block_rates.size()), "count");
  if (options.trace) {
    LayerInputs in;
    in.tracer = &tracer;
    in.loop = &loop;
    in.registry = &registry;
    in.wall_s = wall_s;
    in.setup = setup;
    // The learner's own forward calls are inside Learn; rows and mask
    // here cover the greedy decisions (warmed-up and trained policy).
    in.forward = greedy_forward;
    in.training_s = training_s;
    AddLayerMetrics(in, report);
  }
}

}  // namespace

bool RunWorkload(const Options& options, Report* report) {
  if (options.workload == "fig7_stddgn") {
    RunFig7(options, report);
  } else if (options.workload == "serve_fig7") {
    RunServe(options, report);
  } else if (options.workload == "train_fig6") {
    RunTrain(options, report);
  } else {
    return false;
  }
  return true;
}

}  // namespace dpdp::bench
