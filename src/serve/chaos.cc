#include "serve/chaos.h"

#include "util/rng.h"

namespace dpdp::serve {
namespace {

/// Sub-stream tags: one independent stream per fault kind, so tuning one
/// probability never shifts another kind's schedule (the DisruptionConfig
/// sub-stream rule). The corrupt-publish stream lives outside the
/// per-shard space entirely.
enum ChaosStream : uint64_t {
  kCrashStream = 0,
  kStallStream = 1,
  kSlowStream = 2,
  kCorruptStream = 0x436f7272,  // "Corr" — disjoint from shard cells.
};

/// Seed of the (shard, tick) cell. Shards are offset so the unsharded
/// service (shard index -1) gets its own stream rather than aliasing
/// shard 0's.
uint64_t CellSeed(uint64_t base, int shard, uint64_t tick) {
  return Rng::DeriveSeed(
      Rng::DeriveSeed(base, static_cast<uint64_t>(shard + 1)), tick);
}

bool Draw(uint64_t cell, uint64_t stream, double prob) {
  if (prob <= 0.0) return false;
  return Rng(Rng::DeriveSeed(cell, stream)).Bernoulli(prob);
}

}  // namespace

ChaosAction ChaosPolicy::ActionAt(int shard, uint64_t tick) const {
  const uint64_t cell = CellSeed(config_.seed, shard, tick);
  // Severity order: a cell where both the crash and the stall stream fire
  // crashes — the harsher fault subsumes the milder one.
  if (Draw(cell, kCrashStream, config_.crash_prob)) return ChaosAction::kCrash;
  if (Draw(cell, kStallStream, config_.stall_prob)) return ChaosAction::kStall;
  if (Draw(cell, kSlowStream, config_.slow_prob)) {
    return ChaosAction::kEvalSlowdown;
  }
  return ChaosAction::kNone;
}

bool ChaosPolicy::CorruptPublishAt(uint64_t publish_index) const {
  if (config_.corrupt_publish_prob <= 0.0) return false;
  return Rng(Rng::DeriveSeed(Rng::DeriveSeed(config_.seed, kCorruptStream),
                             publish_index))
      .Bernoulli(config_.corrupt_publish_prob);
}

}  // namespace dpdp::serve
