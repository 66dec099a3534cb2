#include "rl/config.h"

#include <algorithm>

#include "util/env.h"

namespace dpdp {
namespace {

AgentConfig MakeBaseConfig() {
  AgentConfig c;
  c.parallel_batch = EnvBoolStrict("DPDP_PARALLEL_BATCH", false);
  return c;
}

}  // namespace

double EpsilonAt(const AgentConfig& config, int episodes) {
  const double frac =
      std::min(1.0, static_cast<double>(episodes) /
                        std::max(1, config.epsilon_decay_episodes));
  return config.epsilon_start +
         frac * (config.epsilon_end - config.epsilon_start);
}

AgentConfig MakeDqnConfig(uint64_t seed) {
  AgentConfig c = MakeBaseConfig();
  c.use_graph = false;
  c.use_st_score = false;
  c.double_dqn = false;
  c.seed = seed;
  return c;
}

AgentConfig MakeDdqnConfig(uint64_t seed) {
  AgentConfig c = MakeBaseConfig();
  c.use_graph = false;
  c.use_st_score = false;
  c.double_dqn = true;
  c.seed = seed;
  return c;
}

AgentConfig MakeStDdqnConfig(uint64_t seed) {
  AgentConfig c = MakeBaseConfig();
  c.use_graph = false;
  c.use_st_score = true;
  c.double_dqn = true;
  c.seed = seed;
  return c;
}

AgentConfig MakeDgnConfig(uint64_t seed) {
  AgentConfig c = MakeBaseConfig();
  c.use_graph = true;
  c.use_st_score = false;
  c.double_dqn = false;
  c.seed = seed;
  return c;
}

AgentConfig MakeDdgnConfig(uint64_t seed) {
  AgentConfig c = MakeBaseConfig();
  c.use_graph = true;
  c.use_st_score = false;
  c.double_dqn = true;
  c.seed = seed;
  return c;
}

AgentConfig MakeStDdgnConfig(uint64_t seed) {
  AgentConfig c = MakeBaseConfig();
  c.use_graph = true;
  c.use_st_score = true;
  c.double_dqn = true;
  c.seed = seed;
  return c;
}

}  // namespace dpdp
