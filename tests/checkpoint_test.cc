// Checkpoint/recovery tests: atomic on-disk format, corruption detection
// via the CRC footer, and the flagship guarantee — kill + resume training
// is bit-identical to an uninterrupted run.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "datagen/dataset.h"
#include "exp/harness.h"
#include "gtest/gtest.h"
#include "rl/actor_critic.h"
#include "rl/checkpoint.h"
#include "rl/config.h"
#include "rl/dqn_agent.h"
#include "rl/trainer.h"
#include "sim/environment.h"
#include "util/crc32.h"

namespace dpdp {
namespace {

Instance CampusInstance() {
  DpdpDataset dataset(StandardDatasetConfig(3, 60.0));
  return dataset.SampleInstance("ckpt", 12, 5, 0, 2, 4);
}

/// Environment config with fault injection on, so resume must also realign
/// the disruption streams to stay bit-identical.
SimulatorConfig FaultySimConfig() {
  SimulatorConfig config;
  config.record_visits = false;
  config.disruption.seed = 41;
  config.disruption.breakdown_prob = 0.3;
  config.disruption.cancel_prob = 0.3;
  return config;
}

std::string AgentStateBytes(const DqnFleetAgent& agent) {
  std::ostringstream os;
  const Status s = agent.SaveState(&os);
  EXPECT_TRUE(s.ok()) << s;
  return os.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good()) << path;
}

bool FileExists(const std::string& path) {
  std::ifstream file(path);
  return file.good();
}

TEST(Checkpoint, SaveLoadRoundTripRestoresFullAgentState) {
  const Instance inst = CampusInstance();
  DqnFleetAgent trained(MakeDqnConfig(/*seed=*/9), "DQN");
  trained.set_training(true);
  Environment env(&inst, FaultySimConfig());
  TrainOptions options;
  options.episodes = 2;
  RunEpisodes(&env, &trained, options);

  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, /*episodes_done=*/2, trained).ok());

  DqnFleetAgent restored(MakeDqnConfig(/*seed=*/9), "DQN");
  const Result<int> episodes = LoadCheckpoint(path, &restored);
  ASSERT_TRUE(episodes.ok()) << episodes.status();
  EXPECT_EQ(episodes.value(), 2);
  EXPECT_EQ(restored.episodes_trained(), trained.episodes_trained());
  EXPECT_EQ(restored.epsilon(), trained.epsilon());
  EXPECT_EQ(AgentStateBytes(restored), AgentStateBytes(trained));
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalToUninterruptedRun) {
  const Instance inst = CampusInstance();
  const int total_episodes = 6;
  const int kill_after = 3;

  // Reference: one uninterrupted 6-episode run.
  DqnFleetAgent uninterrupted(MakeDqnConfig(/*seed=*/9), "DQN");
  uninterrupted.set_training(true);
  Environment sim_a(&inst, FaultySimConfig());
  TrainOptions full;
  full.episodes = total_episodes;
  RunEpisodes(&sim_a, &uninterrupted, full);

  // "Crashing" run: train to the checkpoint, then throw the process state
  // away (fresh agent, fresh simulator) and resume from disk.
  const std::string dir = TempPath("kill_resume");
  {
    DqnFleetAgent doomed(MakeDqnConfig(/*seed=*/9), "DQN");
    doomed.set_training(true);
    Environment sim_b(&inst, FaultySimConfig());
    TrainOptions first_half;
    first_half.episodes = kill_after;
    first_half.checkpoint_every = kill_after;
    first_half.checkpoint_dir = dir;
    RunEpisodes(&sim_b, &doomed, first_half);
    ASSERT_TRUE(FileExists(first_half.checkpoint_path("DQN")));
  }
  DqnFleetAgent resumed(MakeDqnConfig(/*seed=*/9), "DQN");
  resumed.set_training(true);
  Environment sim_c(&inst, FaultySimConfig());
  TrainOptions second_half;
  second_half.episodes = total_episodes;
  second_half.checkpoint_dir = dir;
  second_half.resume_from = second_half.checkpoint_path("DQN");
  const TrainingCurve tail = RunEpisodes(&sim_c, &resumed, second_half);

  // The resumed run only executed the remaining episodes...
  EXPECT_EQ(tail.nuv.size(),
            static_cast<size_t>(total_episodes - kill_after));
  // ...and its full training state — weights, target net, Adam moments,
  // RNG, epsilon schedule, replay buffer, best-weights snapshot — matches
  // the uninterrupted run byte for byte.
  EXPECT_EQ(AgentStateBytes(resumed), AgentStateBytes(uninterrupted));
}

TEST(Checkpoint, MissingFileIsNotFound) {
  DqnFleetAgent agent(MakeDqnConfig(3), "DQN");
  const Result<int> r = LoadCheckpoint(TempPath("never_written.ckpt"), &agent);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    agent_ = std::make_unique<DqnFleetAgent>(MakeDqnConfig(5), "DQN");
    path_ = TempPath("corrupt.ckpt");
    ASSERT_TRUE(SaveCheckpoint(path_, 1, *agent_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 32u);
  }

  std::unique_ptr<DqnFleetAgent> agent_;
  std::string path_;
  std::string bytes_;
};

TEST_F(CheckpointCorruption, SingleBitFlipFailsCrc) {
  std::string flipped = bytes_;
  flipped[flipped.size() / 2] ^= 0x20;  // Somewhere inside the payload.
  WriteFileBytes(path_, flipped);
  const Result<int> r = LoadCheckpoint(path_, agent_.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("CRC"), std::string::npos)
      << r.status();
}

TEST_F(CheckpointCorruption, TruncationIsDetected) {
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() / 2));
  EXPECT_FALSE(LoadCheckpoint(path_, agent_.get()).ok());
  WriteFileBytes(path_, bytes_.substr(0, 4));  // Shorter than the header.
  EXPECT_FALSE(LoadCheckpoint(path_, agent_.get()).ok());
}

TEST_F(CheckpointCorruption, BadMagicIsDetected) {
  std::string wrong = bytes_;
  wrong[0] = 'X';
  WriteFileBytes(path_, wrong);
  const Result<int> r = LoadCheckpoint(path_, agent_.get());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("magic"), std::string::npos)
      << r.status();
}

TEST_F(CheckpointCorruption, ArchitectureMismatchRejected) {
  // A DGN agent has different layer shapes; its LoadState must refuse the
  // DQN blob instead of reinterpreting it.
  DqnFleetAgent other(MakeDgnConfig(5), "DGN");
  const Result<int> r = LoadCheckpoint(path_, &other);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Checkpoint, SeqFooterRoundTrips) {
  DqnFleetAgent agent(MakeDqnConfig(11), "DQN");
  const std::string path = TempPath("seq.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, /*episodes_done=*/7, agent,
                             /*seq=*/42).ok());

  const Result<CheckpointInfo> info = ReadCheckpointInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info.value().episodes_done, 7);
  EXPECT_EQ(info.value().seq, 42u);

  // The seq footer never interferes with a full restore.
  DqnFleetAgent restored(MakeDqnConfig(11), "DQN");
  const Result<int> episodes = LoadCheckpoint(path, &restored);
  ASSERT_TRUE(episodes.ok()) << episodes.status();
  EXPECT_EQ(episodes.value(), 7);
}

TEST(Checkpoint, DefaultSeqIsEpisodesDone) {
  // The training loop saves once per episode, so episodes_done is already
  // a valid monotonic publication number — seq 0 means "use it".
  DqnFleetAgent agent(MakeDqnConfig(11), "DQN");
  const std::string path = TempPath("seq_default.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, /*episodes_done=*/5, agent).ok());
  const Result<CheckpointInfo> info = ReadCheckpointInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info.value().seq, 5u);
}

TEST(Checkpoint, ReadCheckpointInfoValidatesWithoutAnAgent) {
  DqnFleetAgent agent(MakeDqnConfig(11), "DQN");
  const std::string path = TempPath("probe.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, 3, agent, 30).ok());
  const std::string bytes = ReadFileBytes(path);

  // Torn write: the probe must fail exactly like a full load would,
  // because the watcher uses it as its only integrity gate.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 6));
  EXPECT_FALSE(ReadCheckpointInfo(path).ok());

  std::string flipped = bytes;
  flipped[flipped.size() / 3] ^= 0x01;
  WriteFileBytes(path, flipped);
  EXPECT_FALSE(ReadCheckpointInfo(path).ok());

  const Result<CheckpointInfo> missing =
      ReadCheckpointInfo(TempPath("no_such.ckpt"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  WriteFileBytes(path, bytes);  // Intact again: probe succeeds.
  ASSERT_TRUE(ReadCheckpointInfo(path).ok());
}

TEST(Checkpoint, VersionOneFilesStillLoadAndReportEpisodesAsSeq) {
  // Rebuild a version-1 file (no seq footer) from a fresh v2 checkpoint:
  // drop the 8-byte seq, stamp version 1, recompute the CRC.
  DqnFleetAgent agent(MakeDqnConfig(13), "DQN");
  const std::string path = TempPath("v1.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, /*episodes_done=*/4, agent, 99).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 8u + 4u + 8u + 4u);

  std::string v1 = bytes.substr(0, bytes.size() - 8 - 4);  // - seq - CRC.
  const uint32_t version1 = 1;
  std::memcpy(&v1[8], &version1, sizeof(version1));
  const uint32_t crc = Crc32(v1.data() + 8, v1.size() - 8);
  v1.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  WriteFileBytes(path, v1);

  const Result<CheckpointInfo> info = ReadCheckpointInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info.value().episodes_done, 4);
  EXPECT_EQ(info.value().seq, 4u) << "v1 files report seq = episodes_done";

  DqnFleetAgent restored(MakeDqnConfig(13), "DQN");
  const Result<int> episodes = LoadCheckpoint(path, &restored);
  ASSERT_TRUE(episodes.ok()) << episodes.status();
  EXPECT_EQ(episodes.value(), 4);
  EXPECT_EQ(AgentStateBytes(restored), AgentStateBytes(agent));
}

TEST(Checkpoint, SaveLeavesNoTmpFileBehind) {
  DqnFleetAgent agent(MakeDqnConfig(7), "DQN");
  const std::string path = TempPath("clean.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, 0, agent).ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(Checkpoint, SaveCreatesParentDirectories) {
  DqnFleetAgent agent(MakeDqnConfig(7), "DQN");
  const std::string path = TempPath("nested/dirs/deep.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, 0, agent).ok());
  EXPECT_TRUE(FileExists(path));
}

TEST(Checkpoint, ActorCriticReportsUnsupported) {
  ActorCriticAgent agent(MakeDqnConfig(3), "AC");
  const Status s = SaveCheckpoint(TempPath("ac.ckpt"), 0, agent);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(TrainOptions, CheckpointPathUsesDirAndAgentName) {
  TrainOptions options;
  options.checkpoint_dir = "/tmp/ckpts";
  EXPECT_EQ(options.checkpoint_path("ST-DDGN"), "/tmp/ckpts/ST-DDGN.ckpt");
}

TEST(TrainOptions, CheckpointDirFallsBackToGenericKnob) {
  // An empty checkpoint_dir reads DPDP_CHECKPOINT_DIR, then ".". The
  // caller's value (CI sets one for the fault suites) is put back after.
  const char* outer = std::getenv("DPDP_CHECKPOINT_DIR");
  const bool had_outer = outer != nullptr;
  const std::string saved = had_outer ? outer : "";
  const TrainOptions options;
  ::setenv("DPDP_CHECKPOINT_DIR", "/tmp/generic-ckpts", 1);
  EXPECT_EQ(options.checkpoint_path("DQN"), "/tmp/generic-ckpts/DQN.ckpt");
  ::unsetenv("DPDP_CHECKPOINT_DIR");
  EXPECT_EQ(options.checkpoint_path("DQN"), "./DQN.ckpt");
  if (had_outer) ::setenv("DPDP_CHECKPOINT_DIR", saved.c_str(), 1);
}

}  // namespace
}  // namespace dpdp
