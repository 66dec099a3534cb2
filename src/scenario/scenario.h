#ifndef DPDP_SCENARIO_SCENARIO_H_
#define DPDP_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/instance.h"
#include "model/vehicle.h"
#include "util/result.h"

namespace dpdp::scenario {

/// A demand surge window: inside [start_min, end_min) the order arrival
/// rate is multiplied by `factor`. Surges are ADDITIVE layers — the
/// baseline order stream is generated unchanged from its own sub-streams
/// and the surge contributes (factor - 1) x baseline EXTRA orders from a
/// separate sub-stream, so enabling a surge can never shift a baseline
/// draw (the layer-independence contract, tested in scenario_test).
struct SurgeWindow {
  double start_min = 0.0;
  double end_min = 0.0;
  double factor = 1.0;  ///< >= 1; extra rate is (factor - 1) x baseline.
  int factory = -1;     ///< Restrict to one pickup factory; -1 = all.
};

/// Demand layers: baseline Poisson scaling, surge windows, random bursts.
struct DemandLayer {
  /// Global multiplier on the baseline rate. Values < 1 thin the baseline
  /// stream with an independent Bernoulli sub-stream (baseline draws
  /// themselves are unchanged); values > 1 add extra orders at
  /// (rate_scale - 1) x baseline from the surge sub-stream.
  double rate_scale = 1.0;
  std::vector<SurgeWindow> surges;
  /// Per-interval probability of an order burst (flash-sale model from the
  /// On-Demand-Delivery-from-Stores line of work).
  double burst_prob = 0.0;
  int burst_orders = 0;            ///< Orders injected per burst.
  double burst_duration_min = 15.0;

  bool active() const {
    return rate_scale != 1.0 || !surges.empty() ||
           (burst_prob > 0.0 && burst_orders > 0);
  }
};

/// Travel-time layer: a deterministic time-of-day wave multiplied onto
/// every travel time at the vehicle clock. Composes multiplicatively with
/// the PR-2 disruption inflation (whose sub-streams it never touches —
/// the wave is a pure function of the departure minute, consuming no
/// randomness).
struct TravelLayer {
  double base_scale = 1.0;       ///< Static multiplier on all travel times.
  double wave_amplitude = 0.0;   ///< 0 disables the wave; typical 0.1-0.5.
  double wave_period_min = 1440.0;
  double wave_phase_min = 0.0;   ///< Minute of the first wave crest.

  bool active() const { return base_scale != 1.0 || wave_amplitude != 0.0; }

  /// Multiplier at `minute`: base_scale * (1 + A*sin(...)), clamped to a
  /// sane floor so pathological configs cannot make time run backwards.
  double ScaleAt(double minute) const;
};

/// One vehicle class of a heterogeneous fleet.
struct FleetClass {
  std::string name;
  double weight = 1.0;  ///< Relative share of the fleet.
  VehicleConfig config;
};

/// Fleet layer: mixed vehicle classes. Empty = homogeneous (default).
struct FleetLayer {
  std::vector<FleetClass> classes;

  bool active() const { return !classes.empty(); }

  /// Deterministically assigns `num_vehicles` vehicles to classes:
  /// largest-remainder apportionment by weight (every class with positive
  /// weight gets representation as the fleet grows), then a seeded shuffle
  /// so class membership is not correlated with depot assignment. Pure
  /// function of (layer, num_vehicles, seed).
  std::vector<VehicleConfig> BuildProfiles(int num_vehicles,
                                           uint64_t seed) const;
};

/// Topology layer: multi-campus placement and docking-constrained
/// stations. Campus 0 is always generated with the exact pre-scenario
/// stream, so the default topology is bit-for-bit the original world.
struct TopologyLayer {
  int num_campuses = 1;
  double campus_spacing_km = 20.0;  ///< Grid spacing between campuses.
  int extra_depots = 0;             ///< Additional depots per campus.
  /// Number of factory nodes that are docking-constrained: every service
  /// at such a node pays `dock_surcharge_min` extra minutes (the vehicle
  /// waits for a dock). Chosen deterministically from the scenario seed.
  int docked_stations = 0;
  double dock_surcharge_min = 0.0;

  bool active() const {
    return num_campuses > 1 || extra_depots > 0 ||
           (docked_stations > 0 && dock_surcharge_min > 0.0);
  }
};

/// A complete scenario: the pure-function spec for a world. Every stream
/// any layer consumes is forked from (scenario seed, layer tag, episode),
/// so two runs of the same (config, seed) produce bitwise-identical
/// worlds, and the default-constructed Scenario reproduces the
/// pre-scenario repo behaviour exactly.
struct Scenario {
  std::string name = "baseline";
  uint64_t seed = 0;  ///< Mixed into every layer's sub-streams.
  DemandLayer demand;
  TravelLayer travel;
  FleetLayer fleet;
  TopologyLayer topology;

  bool active() const {
    return demand.active() || travel.active() || fleet.active() ||
           topology.active();
  }
};

/// Parses the line-based scenario config DSL. Format: one `key = value`
/// per line, `#` comments, blank lines ignored. Keys:
///   name, seed
///   demand.rate_scale, demand.burst_prob, demand.burst_orders,
///   demand.burst_duration
///   demand.surge = <start_min> <end_min> <factor> [factory]   (repeatable)
///   travel.base_scale, travel.wave_amplitude, travel.wave_period,
///   travel.wave_phase
///   fleet.class = <name> <weight> <capacity> <fixed_cost> <cost_per_km>
///                 <speed_kmph> <service_time_min>               (repeatable)
///   topology.campuses, topology.spacing_km, topology.extra_depots,
///   topology.docked_stations, topology.dock_surcharge
/// Unknown keys, malformed values, and out-of-range numbers are rejected
/// with a message naming the line.
Result<Scenario> ParseScenario(const std::string& text);

/// Reads and parses a scenario config file.
Result<Scenario> LoadScenarioFile(const std::string& path);

/// Names of the built-in scenarios (each a BuiltinScenario argument).
const std::vector<std::string>& BuiltinScenarioNames();

/// Returns the named built-in scenario, or InvalidArgument.
Result<Scenario> BuiltinScenario(const std::string& name);

/// Applies the fleet layer to a built instance (sizes vehicle_profiles
/// from the instance's fleet). No-op when the layer is inactive.
void ApplyFleetLayer(const FleetLayer& layer, uint64_t seed,
                     Instance* instance);

/// Applies the docking part of the topology layer: picks
/// `docked_stations` factory nodes by seeded sample and charges
/// `dock_surcharge_min` at each. No-op when inactive.
void ApplyDockingLayer(const TopologyLayer& layer, uint64_t seed,
                       Instance* instance);

/// Stream tags for Rng::Fork — shared by every consumer of scenario
/// randomness so layers can never collide on a sub-stream.
enum StreamTag : uint64_t {
  kStreamBaselineCount = 0,  ///< Baseline per-interval order counts.
  kStreamBaselineAttrs = 1,  ///< Baseline order attributes.
  kStreamThinning = 2,       ///< rate_scale < 1 Bernoulli keep/drop.
  kStreamSurge = 3,          ///< Surge/extra-rate order generation.
  kStreamBurst = 4,          ///< Burst occurrence + burst orders.
  kStreamFleet = 5,          ///< Fleet class shuffle.
  kStreamDocking = 6,        ///< Docked-station sample.
};

}  // namespace dpdp::scenario

#endif  // DPDP_SCENARIO_SCENARIO_H_
