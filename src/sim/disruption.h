#ifndef DPDP_SIM_DISRUPTION_H_
#define DPDP_SIM_DISRUPTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/instance.h"
#include "util/status.h"

namespace dpdp {

/// Configuration of the seeded fault-injection stream. All probabilities
/// are per entity per episode; the default config injects nothing, so
/// existing callers are unaffected.
///
/// Determinism contract: the event stream is a pure function of
/// (seed, episode index, instance) — see GenerateDisruptionEvents — so
/// parallel seed-tasks with per-task Environment instances reproduce the
/// serial stream bit-for-bit.
struct DisruptionConfig {
  /// Base seed of the disruption stream (independent of agent/dataset
  /// seeds; episode index is mixed in via Rng::DeriveSeed).
  uint64_t seed = 0;

  /// Vehicle breakdowns: with probability breakdown_prob a vehicle breaks
  /// down once, at a uniform time in the horizon, for a uniform duration.
  /// The vehicle is frozen (cannot depart toward new stops, is excluded
  /// from dispatch) until the repair completes; its re-plannable suffix is
  /// re-planned onto the rest of the fleet.
  double breakdown_prob = 0.0;
  double breakdown_min_duration_min = 30.0;
  double breakdown_max_duration_min = 120.0;

  /// Order cancellations: with probability cancel_prob an order is
  /// cancelled at create_time + U(0, cancel_max_delay_min). Cancels before
  /// dispatch skip the order; after dispatch the pickup/delivery pair is
  /// removed if the pickup is still in the uncommitted suffix, otherwise
  /// the cancel arrives too late and is ignored (no-interference rule).
  double cancel_prob = 0.0;
  double cancel_max_delay_min = 30.0;

  /// Stochastic travel-time inflation: with probability inflation_prob a
  /// vehicle's travel times are scaled by U(min_factor, max_factor) for a
  /// uniform-duration window (congestion). Distances — and therefore
  /// costs — are unchanged; only the clock slows down.
  double inflation_prob = 0.0;
  double inflation_min_factor = 1.2;
  double inflation_max_factor = 2.0;
  double inflation_min_duration_min = 60.0;
  double inflation_max_duration_min = 240.0;

  bool any() const {
    return breakdown_prob > 0.0 || cancel_prob > 0.0 || inflation_prob > 0.0;
  }
};

enum class DisruptionKind {
  kBreakdown,
  kCancellation,
  kTravelInflation,  ///< factor > 1 starts a window, factor == 1 ends it.
};

const char* DisruptionKindName(DisruptionKind kind);

/// One scheduled fault, produced by GenerateDisruptionEvents.
struct DisruptionEvent {
  DisruptionKind kind = DisruptionKind::kBreakdown;
  double time = 0.0;          ///< Simulated minute the fault strikes.
  int vehicle = -1;           ///< Breakdown / inflation target.
  int order = -1;             ///< Cancellation target.
  double duration_min = 0.0;  ///< Breakdown repair time.
  double factor = 1.0;        ///< Travel-time scale (inflation).
};

/// What the simulator actually did with one event (the disruption trace
/// surfaced in EpisodeResult and dumped as a CI artifact on failure).
struct AppliedDisruption {
  DisruptionEvent event;
  int orders_replanned = 0;  ///< Breakdown: suffix orders moved elsewhere.
  int orders_dropped = 0;    ///< Breakdown: no feasible vehicle found.
  bool ignored = false;      ///< E.g. cancel after the pickup committed.

  std::string DebugString() const;
};

/// Builds episode `episode`'s event stream: a pure function of
/// (cfg.seed, episode, instance shape). Internally one sub-stream per
/// disruption kind (Rng::Fork(0..2) off DeriveSeed(cfg.seed, episode)) so
/// enabling one kind never shifts another kind's draws. Events are sorted
/// by (time, kind, vehicle, order).
std::vector<DisruptionEvent> GenerateDisruptionEvents(
    const DisruptionConfig& cfg, const Instance& instance, int episode);

/// Writes an applied-disruption trace as CSV (one row per event).
Status WriteDisruptionTraceCsv(const std::string& path,
                               const std::vector<AppliedDisruption>& trace);

}  // namespace dpdp

#endif  // DPDP_SIM_DISRUPTION_H_
