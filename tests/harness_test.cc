#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "baselines/greedy_baselines.h"
#include "exp/harness.h"
#include "exp/heatmap.h"
#include "obs/http_exporter.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "rl/actor_critic.h"
#include "stpred/predictor.h"
#include "rl/dqn_agent.h"
#include "util/log.h"

namespace dpdp {
namespace {

// Every DPDP_* knob parses strictly. These are the values the lenient
// atoi/atof readers used to misread. The children re-execute the binary
// ("threadsafe" death tests), so a switch latched at static
// initialization sees the value set here.

TEST(StrictEnvKnobs, TraceAcceptsTrueAsOn) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("DPDP_TRACE", "true", 1);
  // _exit skips the trace file the enabled tracer writes at exit.
  EXPECT_EXIT(_exit(obs::TraceEnabled() ? 0 : 1),
              ::testing::ExitedWithCode(0), "");
  ::unsetenv("DPDP_TRACE");
}

TEST(StrictEnvKnobs, MalformedHttpPortAbortsInsteadOfBindingEphemeral) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // "4x" is the integer-with-trailing-text case.
  for (const std::string value : {"abc", "4x"}) {
    ::setenv("DPDP_OBS_HTTP_PORT", value.c_str(), 1);
    EXPECT_DEATH(obs::HttpExporter exporter,
                 "DPDP_OBS_HTTP_PORT=\"" + value + "\"");
  }
  ::unsetenv("DPDP_OBS_HTTP_PORT");
}

TEST(StrictEnvKnobs, DecimalCommaSloObjectiveAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("DPDP_SLO_P99_S", "0,5", 1);
  EXPECT_DEATH(obs::SloConfigFromEnv(), "DPDP_SLO_P99_S=\"0,5\"");
  ::unsetenv("DPDP_SLO_P99_S");
}

TEST(StrictEnvKnobs, UnknownLogLevelAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("DPDP_LOG_LEVEL", "verbose", 1);
  // The level is latched at static initialization, so the re-executed
  // child dies before it reaches the statement.
  EXPECT_DEATH(GetLogLevel(), "DPDP_LOG_LEVEL=\"verbose\"");
  ::unsetenv("DPDP_LOG_LEVEL");
}

// README documents the DPDP_* knobs the programs read, and only those.
// The strict readers take each name as a string literal, so the literals
// "DPDP_..." under src/, bench/ and examples/ are the knob set.

std::string ReadText(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

bool IsNameChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

/// Every whole DPDP_[A-Z0-9_]+ token of `text`; with `quoted`, only the
/// tokens that form a whole string literal.
std::set<std::string> KnobNames(const std::string& text, bool quoted) {
  std::set<std::string> names;
  for (size_t at = text.find("DPDP_"); at != std::string::npos;
       at = text.find("DPDP_", at + 1)) {
    if (at > 0 && IsNameChar(text[at - 1])) continue;
    size_t end = at + 5;
    while (end < text.size() && IsNameChar(text[end])) ++end;
    const bool literal = at > 0 && text[at - 1] == '"' &&
                         end < text.size() && text[end] == '"';
    if (quoted && !literal) continue;
    names.insert(text.substr(at, end - at));
  }
  return names;
}

std::set<std::string> SourceKnobs() {
  std::set<std::string> names;
  for (const char* dir : {"src", "bench", "examples"}) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             std::filesystem::path(DPDP_SOURCE_ROOT) / dir)) {
      if (!entry.is_regular_file()) continue;
      names.merge(KnobNames(ReadText(entry.path()), /*quoted=*/true));
    }
  }
  return names;
}

std::string Readme() {
  return ReadText(std::filesystem::path(DPDP_SOURCE_ROOT) / "README.md");
}

TEST(KnobDocs, ReadmeNamesEveryKnobInFull) {
  const std::set<std::string> knobs = SourceKnobs();
  ASSERT_FALSE(knobs.empty());
  const std::set<std::string> documented = KnobNames(Readme(), false);
  for (const std::string& knob : knobs) {
    EXPECT_TRUE(documented.count(knob)) << knob << " is not in README.md";
  }
}

TEST(KnobDocs, ReadmeTableRowsNameOnlyReadKnobs) {
  const std::set<std::string> knobs = SourceKnobs();
  std::istringstream readme(Readme());
  int named = 0;
  for (std::string line; std::getline(readme, line);) {
    if (line.empty() || line[0] != '|') continue;
    const std::string first_cell = line.substr(1, line.find('|', 1) - 1);
    for (const std::string& name : KnobNames(first_cell, false)) {
      ++named;
      EXPECT_TRUE(knobs.count(name))
          << "README.md row names " << name << ", which no program reads";
    }
  }
  EXPECT_GT(named, 0);
}

TEST(Harness, StandardDatasetConfigMatchesPaperWorld) {
  const DpdpDataset::Config config = StandardDatasetConfig(3, 150.0);
  EXPECT_EQ(config.campus.num_factories, 27);
  EXPECT_EQ(config.num_intervals, 144);
  EXPECT_DOUBLE_EQ(config.orders.mean_orders_per_day, 150.0);
  EXPECT_GT(config.vehicle.fixed_cost, config.vehicle.cost_per_km);
}

TEST(Harness, MakeAgentByNameCoversAllMethods) {
  for (const char* m :
       {"DQN", "AC", "DDQN", "ST-DDQN", "DGN", "DDGN", "ST-DDGN"}) {
    auto agent = MakeAgentByName(m, 1);
    ASSERT_NE(agent, nullptr) << m;
    EXPECT_EQ(std::string(agent->name()), m);
  }
  EXPECT_NE(dynamic_cast<ActorCriticAgent*>(MakeAgentByName("AC", 1).get()),
            nullptr);
  EXPECT_NE(
      dynamic_cast<DqnFleetAgent*>(MakeAgentByName("ST-DDGN", 1).get()),
      nullptr);
}

TEST(Harness, AgentConfigFlagsMatchAblationGrid) {
  auto* ddqn = dynamic_cast<DqnFleetAgent*>(MakeAgentByName("DDQN", 1).get());
  // Careful: the unique_ptr above is a temporary — re-fetch properly.
  auto owned = MakeAgentByName("DDQN", 1);
  ddqn = dynamic_cast<DqnFleetAgent*>(owned.get());
  ASSERT_NE(ddqn, nullptr);
  EXPECT_FALSE(ddqn->config().use_graph);
  EXPECT_FALSE(ddqn->config().use_st_score);
  EXPECT_TRUE(ddqn->config().double_dqn);

  auto owned2 = MakeAgentByName("ST-DDGN", 1);
  auto* stddgn = dynamic_cast<DqnFleetAgent*>(owned2.get());
  ASSERT_NE(stddgn, nullptr);
  EXPECT_TRUE(stddgn->config().use_graph);
  EXPECT_TRUE(stddgn->config().use_st_score);
  EXPECT_TRUE(stddgn->config().double_dqn);

  auto owned3 = MakeAgentByName("DGN", 1);
  auto* dgn = dynamic_cast<DqnFleetAgent*>(owned3.get());
  ASSERT_NE(dgn, nullptr);
  EXPECT_TRUE(dgn->config().use_graph);
  EXPECT_FALSE(dgn->config().double_dqn);
}

TEST(Harness, MethodListsMatchPaper) {
  EXPECT_EQ(ComparisonDrlMethods(),
            (std::vector<std::string>{"DQN", "AC", "DGN", "ST-DDGN"}));
  EXPECT_EQ(AblationModels(),
            (std::vector<std::string>{"DDQN", "ST-DDQN", "DDGN", "ST-DDGN"}));
}

TEST(Harness, SampleInstanceInWindowRespectsBounds) {
  DpdpDataset dataset(StandardDatasetConfig(3, 400.0));
  const Instance inst = SampleInstanceInWindow(
      &dataset, "w", 8, 5, 0, 2, /*t_lo=*/540.0, /*t_hi=*/720.0, 9);
  EXPECT_EQ(inst.num_orders(), 8);
  EXPECT_EQ(inst.num_vehicles(), 5);
  for (const Order& o : inst.orders) {
    EXPECT_GE(o.create_time_min, 540.0);
    EXPECT_LT(o.create_time_min, 720.0);
  }
  EXPECT_TRUE(ValidateInstance(inst).ok());
}

TEST(Harness, RunBaselineIsSingleDeterministicRun) {
  DpdpDataset dataset(StandardDatasetConfig(3, 100.0));
  const Instance inst = dataset.SampleInstance("b", 30, 10, 0, 2, 4);
  MinIncrementalLengthDispatcher b1;
  const MethodSummary a = RunBaseline(inst, &b1);
  const MethodSummary b = RunBaseline(inst, &b1);
  ASSERT_EQ(a.nuv.size(), 1u);
  EXPECT_DOUBLE_EQ(a.tc_mean(), b.tc_mean());
  EXPECT_DOUBLE_EQ(a.tc_std(), 0.0);
}

TEST(Harness, TrainEvalOnInstanceProducesCurve) {
  DpdpDataset dataset(StandardDatasetConfig(3, 60.0));
  const Instance inst = dataset.SampleInstance("t", 15, 5, 0, 2, 4);
  AverageStdPredictor predictor;
  const nn::Matrix predicted = predictor.Predict(dataset.History(3, 2)).value();
  const DrlOutcome out =
      TrainEvalOnInstance(inst, predicted, "DDQN", 1, /*episodes=*/4);
  EXPECT_EQ(out.curve.nuv.size(), 4u);
  EXPECT_EQ(out.curve.total_cost.size(), 4u);
  EXPECT_TRUE(out.eval.all_served());
  EXPECT_GT(out.train_seconds, 0.0);
}

TEST(Harness, RunDrlMethodAggregatesSeeds) {
  DpdpDataset dataset(StandardDatasetConfig(3, 60.0));
  const Instance inst = dataset.SampleInstance("t", 15, 5, 0, 2, 4);
  const MethodSummary s =
      RunDrlMethod(inst, nn::Matrix(), "DQN", /*episodes=*/2,
                   /*num_seeds=*/3, /*seed_base=*/7);
  EXPECT_EQ(s.nuv.size(), 3u);
  EXPECT_EQ(s.tc.size(), 3u);
  EXPECT_GT(s.tc_mean(), 0.0);
}

// ---------------------------------------------------------------- Heatmap --

TEST(Heatmap, RendersOneLinePerRow) {
  nn::Matrix m(3, 144);
  m(0, 0) = 5.0;
  m(2, 143) = 10.0;
  const std::string out = RenderHeatmap(m, 72);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find('@'), std::string::npos);  // Max cell hits top ramp.
}

TEST(Heatmap, EmptyMatrix) {
  EXPECT_EQ(RenderHeatmap(nn::Matrix()), "(empty)\n");
}

TEST(Heatmap, SummaryReportsPeaksAndHotFactories) {
  nn::Matrix m(4, 144);
  // All demand at factory 2, 11:00 (interval 66).
  m(2, 66) = 100.0;
  const std::string s = SummarizeStdMatrix(m);
  EXPECT_NE(s.find("total demand volume: 100"), std::string::npos);
  EXPECT_NE(s.find("2: 100"), std::string::npos);
  EXPECT_NE(s.find("10:00-12:00 window: 1"), std::string::npos);
}

}  // namespace
}  // namespace dpdp
