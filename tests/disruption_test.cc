// Fault-injection tests: the seeded disruption stream, the simulator's
// breakdown / cancellation / inflation handling (no-interference rule,
// validated by the brute-force feasibility oracle), and the
// graceful-degradation fallback path.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/greedy_baselines.h"
#include "datagen/dataset.h"
#include "exp/harness.h"
#include "gtest/gtest.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "sim/disruption.h"
#include "sim/environment.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using testing::CheckEpisodeFeasible;

bool SameEvent(const DisruptionEvent& a, const DisruptionEvent& b) {
  return a.kind == b.kind && a.time == b.time && a.vehicle == b.vehicle &&
         a.order == b.order && a.duration_min == b.duration_min &&
         a.factor == b.factor;
}

bool SameStream(const std::vector<DisruptionEvent>& a,
                const std::vector<DisruptionEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameEvent(a[i], b[i])) return false;
  }
  return true;
}

DisruptionConfig AllFaultsConfig(uint64_t seed) {
  DisruptionConfig cfg;
  cfg.seed = seed;
  cfg.breakdown_prob = 1.0;
  cfg.cancel_prob = 1.0;
  cfg.inflation_prob = 1.0;
  return cfg;
}

Instance CampusInstance() {
  DpdpDataset dataset(StandardDatasetConfig(3, 60.0));
  return dataset.SampleInstance("fault", 20, 6, 0, 2, 4);
}

// ------------------------------------------------------ event generator --

TEST(DisruptionStream, DefaultConfigInjectsNothing) {
  const Instance inst = CampusInstance();
  DisruptionConfig cfg;
  EXPECT_FALSE(cfg.any());
  EXPECT_TRUE(GenerateDisruptionEvents(cfg, inst, 0).empty());
}

TEST(DisruptionStream, PureFunctionOfSeedAndEpisode) {
  const Instance inst = CampusInstance();
  const DisruptionConfig cfg = AllFaultsConfig(17);
  const auto a = GenerateDisruptionEvents(cfg, inst, 4);
  const auto b = GenerateDisruptionEvents(cfg, inst, 4);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(SameStream(a, b));

  // Different episodes and different seeds draw different streams.
  EXPECT_FALSE(SameStream(a, GenerateDisruptionEvents(cfg, inst, 5)));
  EXPECT_FALSE(
      SameStream(a, GenerateDisruptionEvents(AllFaultsConfig(18), inst, 4)));
}

TEST(DisruptionStream, EventsSortedByTime) {
  const Instance inst = CampusInstance();
  const auto events = GenerateDisruptionEvents(AllFaultsConfig(23), inst, 0);
  ASSERT_GT(events.size(), 1u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time) << "event " << i;
  }
}

TEST(DisruptionStream, KindSubStreamsAreIndependent) {
  // Enabling cancellations must not shift the breakdown draws: each kind
  // has its own forked sub-stream, and per-entity tuples are drawn
  // unconditionally.
  const Instance inst = CampusInstance();
  DisruptionConfig only_breakdowns;
  only_breakdowns.seed = 31;
  only_breakdowns.breakdown_prob = 1.0;
  DisruptionConfig both = only_breakdowns;
  both.cancel_prob = 1.0;

  std::vector<DisruptionEvent> a;
  for (const DisruptionEvent& e :
       GenerateDisruptionEvents(only_breakdowns, inst, 2)) {
    if (e.kind == DisruptionKind::kBreakdown) a.push_back(e);
  }
  std::vector<DisruptionEvent> b;
  for (const DisruptionEvent& e : GenerateDisruptionEvents(both, inst, 2)) {
    if (e.kind == DisruptionKind::kBreakdown) b.push_back(e);
  }
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(SameStream(a, b));
}

TEST(DisruptionStream, ProbabilityZeroKindEmitsNoEvents) {
  const Instance inst = CampusInstance();
  DisruptionConfig cfg;
  cfg.seed = 5;
  cfg.breakdown_prob = 1.0;
  for (const DisruptionEvent& e : GenerateDisruptionEvents(cfg, inst, 0)) {
    EXPECT_EQ(e.kind, DisruptionKind::kBreakdown);
  }
}

// ---------------------------------------------------- disrupted episodes --

TEST(DisruptedEpisode, BreakdownsKeepEpisodeFeasible) {
  const Instance inst = CampusInstance();
  SimulatorConfig config;
  config.record_plan = true;
  config.disruption.seed = 7;
  config.disruption.breakdown_prob = 0.7;
  Environment env(&inst, config);
  MinIncrementalLengthDispatcher greedy;
  const EpisodeResult result = RunEpisode(&env, &greedy);

  EXPECT_GT(result.num_breakdowns, 0);
  EXPECT_EQ(result.num_served + result.num_unserved, result.num_orders);
  EXPECT_EQ(result.skipped_orders.size(),
            static_cast<size_t>(result.num_unserved));
  EXPECT_FALSE(result.disruption_trace.empty());
  // The executed plan honors every constraint even mid-disruption: the
  // oracle re-checks LIFO, capacity, deadlines and OA/RP consistency
  // without reusing any planner code (no-interference violations would
  // surface as duplicated or orphaned stops).
  EXPECT_TRUE(CheckEpisodeFeasible(inst, result));
}

TEST(DisruptedEpisode, AllFaultKindsTogetherStayFeasible) {
  const Instance inst = CampusInstance();
  SimulatorConfig config;
  config.record_plan = true;
  config.buffer_window_min = 30.0;  // Lets cancels land pre-dispatch too.
  config.disruption = AllFaultsConfig(11);
  Environment env(&inst, config);
  MinIncrementalLengthDispatcher greedy;
  const EpisodeResult result = RunEpisode(&env, &greedy);

  EXPECT_EQ(result.num_served + result.num_unserved, result.num_orders);
  EXPECT_TRUE(CheckEpisodeFeasible(inst, result));
}

TEST(DisruptedEpisode, CancellationsWithBufferingSkipOrders) {
  const Instance inst = CampusInstance();
  SimulatorConfig config;
  config.record_plan = true;
  config.buffer_window_min = 30.0;
  config.disruption.seed = 13;
  config.disruption.cancel_prob = 1.0;
  config.disruption.cancel_max_delay_min = 30.0;
  Environment env(&inst, config);
  MinIncrementalLengthDispatcher greedy;
  const EpisodeResult result = RunEpisode(&env, &greedy);

  EXPECT_GT(result.num_cancelled, 0);
  int cancelled_skips = 0;
  for (const OrderSkip& skip : result.skipped_orders) {
    if (skip.reason == SkipReason::kCancelled) ++cancelled_skips;
  }
  EXPECT_EQ(cancelled_skips, result.num_cancelled);
  EXPECT_TRUE(CheckEpisodeFeasible(inst, result));
}

TEST(DisruptedEpisode, TravelInflationDelaysButKeepsFeasibility) {
  const Instance inst = CampusInstance();
  SimulatorConfig config;
  config.record_plan = true;
  config.disruption.seed = 19;
  config.disruption.inflation_prob = 1.0;
  Environment env(&inst, config);
  MinIncrementalLengthDispatcher greedy;
  const EpisodeResult result = RunEpisode(&env, &greedy);

  EXPECT_EQ(result.num_breakdowns, 0);
  EXPECT_EQ(result.num_cancelled, 0);
  EXPECT_TRUE(CheckEpisodeFeasible(inst, result));
}

TEST(DisruptedEpisode, StreamFollowsSimulatorEpisodeCounter) {
  // Episode e of a long-lived simulator and episode e of a fresh simulator
  // fast-forwarded with set_episodes_run draw the same fault stream — the
  // property checkpoint resume relies on.
  const Instance inst = CampusInstance();
  SimulatorConfig config;
  config.disruption.seed = 29;
  config.disruption.breakdown_prob = 0.6;
  config.disruption.cancel_prob = 0.4;
  MinIncrementalLengthDispatcher greedy;

  Environment continuous(&inst, config);
  EpisodeResult third;
  for (int e = 0; e < 3; ++e) third = RunEpisode(&continuous, &greedy);

  Environment resumed(&inst, config);
  resumed.set_episodes_run(2);
  const EpisodeResult replay = RunEpisode(&resumed, &greedy);

  EXPECT_EQ(replay.total_cost, third.total_cost);
  EXPECT_EQ(replay.nuv, third.nuv);
  EXPECT_EQ(replay.num_breakdowns, third.num_breakdowns);
  EXPECT_EQ(replay.num_cancelled, third.num_cancelled);
  EXPECT_EQ(replay.disruption_trace.size(), third.disruption_trace.size());
}

// ------------------------------------------------- graceful degradation --

/// A dispatcher that always gives an unusable answer.
class BrokenDispatcher : public Dispatcher {
 public:
  explicit BrokenDispatcher(int answer) : answer_(answer) {}
  const char* name() const override { return "Broken"; }
  int Act(const DispatchContext&) override { return answer_; }

 private:
  int answer_;
};

TEST(GracefulDegradation, InvalidChoiceFallsBackToGreedy) {
  const Instance inst = CampusInstance();
  SimulatorConfig config;
  config.record_plan = true;

  Environment sim_broken(&inst, config);
  BrokenDispatcher broken(-1);
  const EpisodeResult degraded = RunEpisode(&sim_broken, &broken);

  Environment sim_greedy(&inst, config);
  MinIncrementalLengthDispatcher greedy;
  const EpisodeResult reference = RunEpisode(&sim_greedy, &greedy);

  // Every decision degraded, and the fallback IS Baseline 1, so the two
  // episodes are identical.
  EXPECT_EQ(degraded.num_degraded_decisions, degraded.num_served);
  EXPECT_GT(degraded.num_degraded_decisions, 0);
  EXPECT_EQ(degraded.total_cost, reference.total_cost);
  EXPECT_EQ(degraded.nuv, reference.nuv);
  EXPECT_TRUE(CheckEpisodeFeasible(inst, degraded));
}

TEST(GracefulDegradation, OutOfRangeChoiceAlsoDegrades) {
  const Instance inst = CampusInstance();
  Environment env(&inst, SimulatorConfig{});
  BrokenDispatcher broken(1 << 20);
  const EpisodeResult result = RunEpisode(&env, &broken);
  EXPECT_EQ(result.num_degraded_decisions, result.num_served);
  EXPECT_GT(result.num_served, 0);
}

/// Rewrites every weight double in an nn::SaveParameters blob to NaN
/// (format: u64 count, then per parameter i32 rows, i32 cols, doubles).
std::string PoisonWeights(const std::string& blob) {
  std::string out = blob;
  size_t pos = 0;
  uint64_t n = 0;
  std::memcpy(&n, out.data() + pos, sizeof(n));
  pos += sizeof(n);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t p = 0; p < n; ++p) {
    int32_t rows = 0;
    int32_t cols = 0;
    std::memcpy(&rows, out.data() + pos, sizeof(rows));
    pos += sizeof(rows);
    std::memcpy(&cols, out.data() + pos, sizeof(cols));
    pos += sizeof(cols);
    for (int64_t i = 0; i < static_cast<int64_t>(rows) * cols; ++i) {
      std::memcpy(out.data() + pos, &nan, sizeof(nan));
      pos += sizeof(nan);
    }
  }
  EXPECT_EQ(pos, out.size());
  return out;
}

TEST(GracefulDegradation, NanQValuesDegradeEveryDecision) {
  const Instance inst = CampusInstance();
  DqnFleetAgent agent(MakeDqnConfig(/*seed=*/3), "DQN");

  std::ostringstream saved;
  agent.Save(&saved);
  std::istringstream poisoned(PoisonWeights(saved.str()));
  ASSERT_TRUE(agent.Load(&poisoned));

  SimulatorConfig config;
  config.record_plan = true;
  Environment env(&inst, config);
  const EpisodeResult degraded = RunEpisode(&env, &agent);

  Environment sim_greedy(&inst, config);
  MinIncrementalLengthDispatcher greedy;
  const EpisodeResult reference = RunEpisode(&sim_greedy, &greedy);

  // The NaN guard rejects every forward pass, so the whole episode runs on
  // the greedy fallback instead of crashing or propagating NaN costs.
  EXPECT_EQ(degraded.num_degraded_decisions, degraded.num_served);
  EXPECT_GT(degraded.num_degraded_decisions, 0);
  EXPECT_EQ(degraded.total_cost, reference.total_cost);
  EXPECT_TRUE(std::isfinite(degraded.total_cost));
  EXPECT_TRUE(CheckEpisodeFeasible(inst, degraded));
}

// --------------------------------------------------- trace + skip names --

TEST(SkipReasons, NamesAreStable) {
  EXPECT_STREQ(SkipReasonName(SkipReason::kNoFeasibleVehicle),
               "no_feasible_vehicle");
  EXPECT_STREQ(SkipReasonName(SkipReason::kCancelled), "cancelled");
  EXPECT_STREQ(SkipReasonName(SkipReason::kBreakdownDropped),
               "breakdown_dropped");
}

TEST(DisruptionTrace, WritesCsvWithHeaderAndRows) {
  const Instance inst = CampusInstance();
  SimulatorConfig config;
  config.disruption = AllFaultsConfig(37);
  Environment env(&inst, config);
  MinIncrementalLengthDispatcher greedy;
  const EpisodeResult result = RunEpisode(&env, &greedy);
  ASSERT_FALSE(result.disruption_trace.empty());

  const std::string path = ::testing::TempDir() + "/dpdp_trace.csv";
  ASSERT_TRUE(WriteDisruptionTraceCsv(path, result.disruption_trace).ok());

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string header;
  ASSERT_TRUE(std::getline(file, header));
  EXPECT_EQ(header,
            "kind,time,vehicle,order,duration_min,factor,"
            "orders_replanned,orders_dropped,ignored");
  size_t rows = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, result.disruption_trace.size());
}

TEST(DisruptionTrace, DebugStringMentionsKind) {
  AppliedDisruption applied;
  applied.event.kind = DisruptionKind::kBreakdown;
  applied.event.vehicle = 3;
  EXPECT_NE(applied.DebugString().find(
                DisruptionKindName(DisruptionKind::kBreakdown)),
            std::string::npos);
}

}  // namespace
}  // namespace dpdp
