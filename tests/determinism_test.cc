// Golden determinism tests for the parallel experiment stack: the same
// work must produce bit-identical results no matter how many threads run
// it, because every parallel task derives its RNG stream from
// (base_seed, task_index) instead of from shared scheduler state.

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/greedy_baselines.h"
#include "exp/harness.h"
#include "gtest/gtest.h"
#include "rl/dqn_agent.h"
#include "rl/trainer.h"
#include "sim/environment.h"
#include "stpred/predictor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dpdp {
namespace {

// ------------------------------------------------------- Rng::Fork(id) --

TEST(RngFork, SameTaskIdYieldsSameStream) {
  const Rng parent(123);
  Rng a = parent.Fork(7);
  Rng b = parent.Fork(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
}

TEST(RngFork, DistinctTaskIdsYieldDistinctStreams) {
  const Rng parent(123);
  std::set<uint64_t> first_draws;
  for (uint64_t id = 0; id < 64; ++id) {
    Rng fork = parent.Fork(id);
    first_draws.insert(fork.NextU64());
  }
  // All 64 sub-streams open differently (SplitMix64 finalization makes
  // collisions here astronomically unlikely; a hit means Fork is broken).
  EXPECT_EQ(first_draws.size(), 64u);
}

TEST(RngFork, IndependentOfParentDrawState) {
  // Fork(id) is a pure function of (seed, id): draws on the parent must
  // not change what a later fork produces. (The legacy zero-arg Fork()
  // intentionally depends on parent state — different contract.)
  Rng fresh(99);
  Rng drawn(99);
  for (int i = 0; i < 10; ++i) (void)drawn.NextU64();
  Rng a = fresh.Fork(3);
  Rng b = drawn.Fork(3);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
}

TEST(RngFork, DeriveSeedDiffersFromBaseSeed) {
  // Task 0's stream must not alias the parent's own stream.
  for (uint64_t seed : {0ULL, 1ULL, 17ULL, 0xdeadbeefULL}) {
    EXPECT_NE(Rng::DeriveSeed(seed, 0), seed);
    EXPECT_NE(Rng::DeriveSeed(seed, 0), Rng::DeriveSeed(seed, 1));
  }
}

// ---------------------------------------------- RunDrlMethod golden run --

struct HarnessWorld {
  HarnessWorld()
      : dataset(StandardDatasetConfig(3, 60.0)),
        instance(dataset.SampleInstance("t", 12, 5, 0, 2, 4)) {
    AverageStdPredictor predictor;
    predicted = predictor.Predict(dataset.History(3, 2)).value();
  }
  DpdpDataset dataset;
  Instance instance;
  nn::Matrix predicted;
};

void ExpectIdenticalSummaries(const std::string& method) {
  HarnessWorld world;
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const MethodSummary a = RunDrlMethod(world.instance, world.predicted,
                                       method, /*episodes=*/3,
                                       /*num_seeds=*/4, /*seed_base=*/7,
                                       &serial);
  const MethodSummary b = RunDrlMethod(world.instance, world.predicted,
                                       method, /*episodes=*/3,
                                       /*num_seeds=*/4, /*seed_base=*/7,
                                       &parallel);
  ASSERT_EQ(a.nuv.size(), 4u);
  ASSERT_EQ(b.nuv.size(), 4u);
  for (size_t s = 0; s < a.nuv.size(); ++s) {
    // Bit-identical, not approximately equal: the parallel runs replay
    // the exact arithmetic of the serial ones.
    EXPECT_EQ(a.nuv[s], b.nuv[s]) << method << " seed " << s;
    EXPECT_EQ(a.tc[s], b.tc[s]) << method << " seed " << s;
  }
}

TEST(DeterminismGolden, RunDrlMethodDqnOneVsFourThreads) {
  ExpectIdenticalSummaries("DQN");
}

TEST(DeterminismGolden, RunDrlMethodStDdgnOneVsFourThreads) {
  ExpectIdenticalSummaries("ST-DDGN");
}

TEST(DeterminismGolden, SeedRunsActuallyDiffer) {
  // Sanity check that the golden comparison is not vacuous: different
  // seeds should explore differently on this instance.
  HarnessWorld world;
  ThreadPool serial(1);
  const MethodSummary s = RunDrlMethod(world.instance, world.predicted,
                                       "DQN", /*episodes=*/3,
                                       /*num_seeds=*/4, /*seed_base=*/7,
                                       &serial);
  const bool any_difference =
      s.tc[0] != s.tc[1] || s.tc[1] != s.tc[2] || s.tc[2] != s.tc[3] ||
      s.nuv[0] != s.nuv[1] || s.nuv[1] != s.nuv[2] || s.nuv[2] != s.nuv[3];
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------ disrupted runs stay golden --

TEST(DeterminismGolden, DisruptedRunDrlMethodOneVsFourThreads) {
  // Fault injection must not break the 1-thread == N-thread contract: the
  // disruption stream is a pure function of (seed, episode index), never
  // of scheduling. Each parallel seed-task builds its own Environment, so
  // all of them replay identical fault streams.
  HarnessWorld world;
  SimulatorConfig faulty;
  faulty.disruption.seed = 91;
  faulty.disruption.breakdown_prob = 0.4;
  faulty.disruption.cancel_prob = 0.4;
  faulty.disruption.inflation_prob = 0.4;

  ThreadPool serial(1);
  ThreadPool parallel(4);
  const MethodSummary a = RunDrlMethod(world.instance, world.predicted,
                                       "DQN", /*episodes=*/3,
                                       /*num_seeds=*/4, /*seed_base=*/7,
                                       &serial, &faulty);
  const MethodSummary b = RunDrlMethod(world.instance, world.predicted,
                                       "DQN", /*episodes=*/3,
                                       /*num_seeds=*/4, /*seed_base=*/7,
                                       &parallel, &faulty);
  ASSERT_EQ(a.nuv.size(), 4u);
  ASSERT_EQ(b.nuv.size(), 4u);
  EXPECT_TRUE(a.seed_errors.empty());
  EXPECT_TRUE(b.seed_errors.empty());
  for (size_t s = 0; s < a.nuv.size(); ++s) {
    EXPECT_EQ(a.nuv[s], b.nuv[s]) << "seed " << s;
    EXPECT_EQ(a.tc[s], b.tc[s]) << "seed " << s;
  }
}

TEST(DeterminismGolden, DisruptionTraceIdenticalAcrossThreadCounts) {
  // Same property one level deeper: the per-episode applied-disruption
  // traces of parallel per-seed simulators match the serial ones event
  // for event.
  HarnessWorld world;
  SimulatorConfig faulty;
  faulty.disruption.seed = 93;
  faulty.disruption.breakdown_prob = 0.6;
  faulty.disruption.cancel_prob = 0.6;
  faulty.record_visits = false;

  auto run_traces = [&](ThreadPool* pool) {
    std::vector<std::string> traces(4);
    pool->ParallelFor(4, [&](int s) {
      SimulatorConfig config = faulty;
      Environment env(&world.instance, config);
      MinIncrementalLengthDispatcher greedy;
      std::ostringstream os;
      for (int e = 0; e < 3; ++e) {
        const EpisodeResult result = RunEpisode(&env, &greedy);
        for (const AppliedDisruption& applied : result.disruption_trace) {
          os << applied.DebugString() << "\n";
        }
      }
      traces[s] = os.str();
    });
    return traces;
  };
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const std::vector<std::string> t1 = run_traces(&serial);
  const std::vector<std::string> t4 = run_traces(&parallel);
  EXPECT_FALSE(t1[0].empty());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(t1[s], t4[s]) << "seed slot " << s;
  }
}

// ------------------------------------------- parallel minibatch updates --

// Trains one agent with the parallel-batch path on the given pool and
// returns the serialized final weights.
std::string TrainParallelBatch(const HarnessWorld& world, ThreadPool* pool) {
  AgentConfig config = MakeStDdgnConfig(/*seed=*/11);
  config.parallel_batch = true;
  config.batch_pool = pool;
  DqnFleetAgent agent(config, "ST-DDGN");

  SimulatorConfig sim_config;
  sim_config.predicted_std = world.predicted;
  sim_config.record_visits = false;
  Environment env(&world.instance, sim_config);
  agent.set_training(true);
  TrainOptions options;
  options.episodes = 4;
  RunEpisodes(&env, &agent, options);

  std::ostringstream os;
  agent.Save(&os);
  return os.str();
}

TEST(DeterminismGolden, ParallelBatchOneVsFourThreads) {
  HarnessWorld world;
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const std::string w1 = TrainParallelBatch(world, &serial);
  const std::string w4 = TrainParallelBatch(world, &parallel);
  EXPECT_FALSE(w1.empty());
  // The ordered gradient reduction makes every update — and therefore the
  // final weight bytes — identical across worker counts.
  EXPECT_EQ(w1, w4);
}

}  // namespace
}  // namespace dpdp
