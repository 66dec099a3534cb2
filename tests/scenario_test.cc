// Scenario-engine suite: DSL parse/reject, scenario purity (same config +
// seed => bitwise-identical streams), layer independence (enabling a layer
// never shifts a baseline draw), heterogeneous-fleet feasibility via the
// brute-force oracle, and the 1-vs-4-thread matrix determinism golden.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"

#include "core/dpdp.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using scenario::BuiltinScenario;
using scenario::BuiltinScenarioNames;
using scenario::ParseScenario;
using scenario::Scenario;

// ---------------------------------------------------------------------------
// DSL parse / reject.

TEST(ScenarioParse, FullConfigRoundTrips) {
  const std::string text = R"(
# A kitchen-sink config exercising every key.
name = stress_day
seed = 42
demand.rate_scale = 1.5
demand.surge = 540 780 2.5        # lunch rush, all factories
demand.surge = 600 660 3 4        # plus a focused spike at factory 4
demand.burst_prob = 0.1
demand.burst_orders = 6
demand.burst_duration = 25
travel.base_scale = 1.1
travel.wave_amplitude = 0.3
travel.wave_period = 720
travel.wave_phase = 510
fleet.class = minivan 2 60 180 1.5 50 8
fleet.class = truck 1 220 520 3.2 30 14
topology.campuses = 2
topology.spacing_km = 25
topology.extra_depots = 1
topology.docked_stations = 5
topology.dock_surcharge = 4
)";
  const Result<Scenario> parsed = ParseScenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Scenario& s = parsed.value();
  EXPECT_EQ(s.name, "stress_day");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.demand.rate_scale, 1.5);
  ASSERT_EQ(s.demand.surges.size(), 2u);
  EXPECT_DOUBLE_EQ(s.demand.surges[0].factor, 2.5);
  EXPECT_EQ(s.demand.surges[0].factory, -1);
  EXPECT_EQ(s.demand.surges[1].factory, 4);
  EXPECT_EQ(s.demand.burst_orders, 6);
  EXPECT_DOUBLE_EQ(s.travel.wave_amplitude, 0.3);
  ASSERT_EQ(s.fleet.classes.size(), 2u);
  EXPECT_EQ(s.fleet.classes[0].name, "minivan");
  EXPECT_DOUBLE_EQ(s.fleet.classes[1].config.capacity, 220.0);
  EXPECT_EQ(s.topology.num_campuses, 2);
  EXPECT_EQ(s.topology.docked_stations, 5);
  EXPECT_TRUE(s.active());
}

TEST(ScenarioParse, EmptyConfigIsInactiveBaseline) {
  const Result<Scenario> parsed = ParseScenario("# nothing but comments\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().name, "baseline");
  EXPECT_FALSE(parsed.value().active());
}

TEST(ScenarioParse, RejectsMalformedConfigs) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"bogus_key = 1", "unknown key"},
      {"demand.rate_scale", "missing ="},
      {"demand.rate_scale = ", "empty value"},
      {"demand.rate_scale = fast", "non-numeric"},
      {"demand.rate_scale = 1000", "out of range"},
      {"demand.rate_scale = -0.5", "negative"},
      {"demand.surge = 540 780", "too few surge tokens"},
      {"demand.surge = 780 540 2", "end before start"},
      {"demand.surge = 540 780 0.5", "factor < 1"},
      {"demand.burst_prob = 1.5", "probability > 1"},
      {"travel.base_scale = 0", "zero scale"},
      {"travel.wave_amplitude = 1.0", "amplitude not < 1"},
      {"travel.wave_period = -10", "negative period"},
      {"fleet.class = van 1 100", "too few class tokens"},
      {"fleet.class = van 0 100 300 2 40 10", "zero weight"},
      {"fleet.class = van 1 -5 300 2 40 10", "negative capacity"},
      {"topology.campuses = 0", "campuses < 1"},
      {"topology.campuses = 100", "campuses > 64"},
      {"topology.extra_depots = -1", "negative depots"},
      {"topology.dock_surcharge = 500", "surcharge > 120"},
      {"seed = -3", "negative seed"},
  };
  for (const auto& c : cases) {
    const Result<Scenario> parsed = ParseScenario(c.text);
    EXPECT_FALSE(parsed.ok()) << "should reject (" << c.why
                              << "): " << c.text;
  }
}

TEST(ScenarioParse, RejectionNamesTheLine) {
  const Result<Scenario> parsed =
      ParseScenario("name = ok\n\ndemand.rate_scale = banana\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("line 3"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ScenarioParse, BuiltinsAllValidAndUnknownRejected) {
  for (const std::string& name : BuiltinScenarioNames()) {
    const Result<Scenario> s = BuiltinScenario(name);
    ASSERT_TRUE(s.ok()) << name;
    EXPECT_EQ(s.value().name, name);
    EXPECT_EQ(s.value().active(), name != "baseline") << name;
  }
  EXPECT_FALSE(BuiltinScenario("no_such_scenario").ok());
}

TEST(ScenarioParse, LoadScenarioFileNamesUnnamedAfterPath) {
  const std::string path = "scenario_test_tmp.cfg";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "demand.rate_scale = 1.25\n";
  }
  const Result<Scenario> loaded = scenario::LoadScenarioFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().name, path);
  EXPECT_DOUBLE_EQ(loaded.value().demand.rate_scale, 1.25);
  std::remove(path.c_str());
  EXPECT_FALSE(scenario::LoadScenarioFile("does_not_exist.cfg").ok());
}

// ---------------------------------------------------------------------------
// Strict env parsing (accepting paths; rejects abort by design and are
// exercised interactively, not in-process).

TEST(StrictEnv, ParsesAndFallsBack) {
  ::setenv("DPDP_TEST_STRICT_INT", "42", 1);
  EXPECT_EQ(EnvIntStrict("DPDP_TEST_STRICT_INT", 7, 0, 100), 42);
  ::unsetenv("DPDP_TEST_STRICT_INT");
  EXPECT_EQ(EnvIntStrict("DPDP_TEST_STRICT_INT", 7, 0, 100), 7);
  ::setenv("DPDP_TEST_STRICT_INT", "", 1);
  EXPECT_EQ(EnvIntStrict("DPDP_TEST_STRICT_INT", 7, 0, 100), 7);
  ::unsetenv("DPDP_TEST_STRICT_INT");

  ::setenv("DPDP_TEST_STRICT_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvDoubleStrict("DPDP_TEST_STRICT_DBL", 1.0, 0.0, 10.0),
                   2.5);
  ::unsetenv("DPDP_TEST_STRICT_DBL");

  ::setenv("DPDP_TEST_STRICT_BOOL", "off", 1);
  EXPECT_FALSE(EnvBoolStrict("DPDP_TEST_STRICT_BOOL", true));
  ::setenv("DPDP_TEST_STRICT_BOOL", "YES", 1);
  EXPECT_TRUE(EnvBoolStrict("DPDP_TEST_STRICT_BOOL", false));
  ::unsetenv("DPDP_TEST_STRICT_BOOL");

  ::setenv("DPDP_TEST_STRICT_U64", "18446744073709551615", 1);
  EXPECT_EQ(EnvU64Strict("DPDP_TEST_STRICT_U64", 0),
            18446744073709551615ull);
  ::unsetenv("DPDP_TEST_STRICT_U64");
}

// ---------------------------------------------------------------------------
// Purity and layer independence of the demand layers.

/// The order's identity for multiset comparison (ids are re-canonicalized,
/// so compare content, not ids).
using OrderKey = std::tuple<int, int, double, double, double>;

std::vector<OrderKey> Keys(const std::vector<Order>& orders) {
  std::vector<OrderKey> keys;
  keys.reserve(orders.size());
  for (const Order& o : orders) {
    keys.emplace_back(o.pickup_node, o.delivery_node, o.quantity,
                      o.create_time_min, o.latest_time_min);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct DayWorld {
  std::shared_ptr<const RoadNetwork> network;
  std::unique_ptr<DemandModel> demand;
};

DayWorld MakeDayWorld() {
  DayWorld w;
  w.network = GenerateCampus(CampusConfig{});
  w.demand = std::make_unique<DemandModel>(*w.network, 48, /*seed=*/11);
  return w;
}

OrderGenConfig SmallOrderConfig() {
  OrderGenConfig config;
  config.mean_orders_per_day = 120.0;
  return config;
}

TEST(ScenarioLayers, SameConfigAndSeedBitwiseIdentical) {
  const DayWorld w = MakeDayWorld();
  OrderGenConfig config = SmallOrderConfig();
  config.demand = BuiltinScenario("adversarial").value().demand;
  config.scenario_seed = 99;
  const std::vector<Order> a =
      GenerateDayOrders(*w.network, *w.demand, config, /*day=*/3, 48, 1440.0,
                        /*seed=*/17);
  const std::vector<Order> b =
      GenerateDayOrders(*w.network, *w.demand, config, /*day=*/3, 48, 1440.0,
                        /*seed=*/17);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pickup_node, b[i].pickup_node);
    EXPECT_EQ(a[i].delivery_node, b[i].delivery_node);
    EXPECT_EQ(a[i].quantity, b[i].quantity);          // Bitwise.
    EXPECT_EQ(a[i].create_time_min, b[i].create_time_min);
    EXPECT_EQ(a[i].latest_time_min, b[i].latest_time_min);
  }
}

TEST(ScenarioLayers, SurgeAddsWithoutTouchingBaseline) {
  const DayWorld w = MakeDayWorld();
  const OrderGenConfig base_config = SmallOrderConfig();
  const std::vector<Order> baseline = GenerateDayOrders(
      *w.network, *w.demand, base_config, /*day=*/5, 48, 1440.0, /*seed=*/17);

  OrderGenConfig surged_config = base_config;
  surged_config.demand.surges.push_back({540.0, 780.0, 2.5, -1});
  surged_config.scenario_seed = 7;
  const std::vector<Order> surged =
      GenerateDayOrders(*w.network, *w.demand, surged_config, /*day=*/5, 48,
                        1440.0, /*seed=*/17);

  // Every baseline order survives, bit for bit; the surge only ADDS.
  const std::vector<OrderKey> base_keys = Keys(baseline);
  const std::vector<OrderKey> surged_keys = Keys(surged);
  EXPECT_GT(surged.size(), baseline.size());
  EXPECT_TRUE(std::includes(surged_keys.begin(), surged_keys.end(),
                            base_keys.begin(), base_keys.end()));

  // Extra orders land inside (or overlapping) the surge window's intervals.
  // The surge stream is seeded by the scenario seed: a different seed draws
  // different extras but the same baseline.
  surged_config.scenario_seed = 8;
  const std::vector<Order> reseeded =
      GenerateDayOrders(*w.network, *w.demand, surged_config, /*day=*/5, 48,
                        1440.0, /*seed=*/17);
  const std::vector<OrderKey> reseeded_keys = Keys(reseeded);
  EXPECT_TRUE(std::includes(reseeded_keys.begin(), reseeded_keys.end(),
                            base_keys.begin(), base_keys.end()));
  EXPECT_NE(reseeded_keys, surged_keys);
}

TEST(ScenarioLayers, ThinningSelectsASubset) {
  const DayWorld w = MakeDayWorld();
  const OrderGenConfig base_config = SmallOrderConfig();
  const std::vector<Order> baseline = GenerateDayOrders(
      *w.network, *w.demand, base_config, /*day=*/2, 48, 1440.0, /*seed=*/17);

  OrderGenConfig thinned_config = base_config;
  thinned_config.demand.rate_scale = 0.5;
  thinned_config.scenario_seed = 7;
  const std::vector<Order> thinned =
      GenerateDayOrders(*w.network, *w.demand, thinned_config, /*day=*/2, 48,
                        1440.0, /*seed=*/17);

  const std::vector<OrderKey> base_keys = Keys(baseline);
  const std::vector<OrderKey> thin_keys = Keys(thinned);
  EXPECT_LT(thinned.size(), baseline.size());
  EXPECT_GT(thinned.size(), 0u);
  EXPECT_TRUE(std::includes(base_keys.begin(), base_keys.end(),
                            thin_keys.begin(), thin_keys.end()));
}

TEST(ScenarioLayers, BurstsAddOnTopOfIntactBaseline) {
  const DayWorld w = MakeDayWorld();
  const OrderGenConfig base_config = SmallOrderConfig();
  const std::vector<Order> baseline = GenerateDayOrders(
      *w.network, *w.demand, base_config, /*day=*/9, 48, 1440.0, /*seed=*/17);

  OrderGenConfig bursty_config = base_config;
  bursty_config.demand.burst_prob = 0.25;
  bursty_config.demand.burst_orders = 5;
  const std::vector<Order> bursty =
      GenerateDayOrders(*w.network, *w.demand, bursty_config, /*day=*/9, 48,
                        1440.0, /*seed=*/17);

  const std::vector<OrderKey> base_keys = Keys(baseline);
  const std::vector<OrderKey> bursty_keys = Keys(bursty);
  EXPECT_GT(bursty.size(), baseline.size());
  EXPECT_TRUE(std::includes(bursty_keys.begin(), bursty_keys.end(),
                            base_keys.begin(), base_keys.end()));
  // Every injected order respects the horizon.
  for (const Order& o : bursty) {
    EXPECT_LT(o.create_time_min, 1440.0);
    EXPECT_GE(o.create_time_min, 0.0);
  }
}

TEST(ScenarioLayers, TravelWaveIsAPureFunction) {
  scenario::TravelLayer wave;
  wave.wave_amplitude = 0.4;
  wave.wave_period_min = 720.0;
  wave.wave_phase_min = 510.0;
  // Crest exactly at the phase, trough half a period later.
  EXPECT_DOUBLE_EQ(wave.ScaleAt(510.0), 1.4);
  EXPECT_DOUBLE_EQ(wave.ScaleAt(510.0 + 360.0), 0.6);
  EXPECT_DOUBLE_EQ(wave.ScaleAt(510.0 + 720.0), 1.4);
  // Composes with the base scale; pathological configs hit the floor, not
  // zero or negative time.
  wave.base_scale = 0.01;
  EXPECT_GT(wave.ScaleAt(510.0 + 360.0), 0.0);
  EXPECT_GE(wave.ScaleAt(510.0 + 360.0), 0.05);
}

// ---------------------------------------------------------------------------
// Fleet layer.

TEST(ScenarioFleet, LargestRemainderApportionmentAndDeterminism) {
  const scenario::FleetLayer layer =
      BuiltinScenario("hetero_fleet").value().fleet;  // Weights 2 : 2 : 1.
  const std::vector<VehicleConfig> profiles = layer.BuildProfiles(10, 3);
  ASSERT_EQ(profiles.size(), 10u);
  int minivans = 0, vans = 0, trucks = 0;
  for (const VehicleConfig& p : profiles) {
    if (p.capacity == 60.0) ++minivans;
    if (p.capacity == 100.0) ++vans;
    if (p.capacity == 220.0) ++trucks;
  }
  EXPECT_EQ(minivans, 4);
  EXPECT_EQ(vans, 4);
  EXPECT_EQ(trucks, 2);

  // Pure function of (layer, n, seed).
  const std::vector<VehicleConfig> again = layer.BuildProfiles(10, 3);
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].capacity, again[i].capacity);
    EXPECT_EQ(profiles[i].speed_kmph, again[i].speed_kmph);
  }

  // Every positive-weight class is represented once the fleet is large
  // enough, even the lightest.
  const std::vector<VehicleConfig> small = layer.BuildProfiles(5, 3);
  int small_trucks = 0;
  for (const VehicleConfig& p : small) {
    if (p.capacity == 220.0) ++small_trucks;
  }
  EXPECT_EQ(small_trucks, 1);
}

// ---------------------------------------------------------------------------
// Worlds: topology, docking, heterogeneous feasibility.

ScenarioMatrixConfig SmallMatrixConfig() {
  ScenarioMatrixConfig config;
  config.mean_orders_per_day = 60.0;
  config.num_orders = 8;
  config.num_vehicles = 4;
  config.day_hi = 1;
  config.episodes = 2;
  return config;
}

TEST(ScenarioWorlds, MultiCampusKeepsCampusZeroBitIdentical) {
  const ScenarioMatrixConfig config = SmallMatrixConfig();
  const ScenarioWorld base =
      BuildScenarioWorld(BuiltinScenario("baseline").value(), config);
  const ScenarioWorld twin =
      BuildScenarioWorld(BuiltinScenario("twin_campus").value(), config);

  const RoadNetwork& base_net = *base.instance.network;
  const RoadNetwork& twin_net = *twin.instance.network;
  EXPECT_EQ(twin_net.num_nodes(), 2 * base_net.num_nodes());
  EXPECT_EQ(twin_net.num_factories(), 2 * base_net.num_factories());
  // Campus 0 of the twin world is node-for-node the single-campus world.
  for (int n = 0; n < base_net.num_nodes(); ++n) {
    EXPECT_EQ(base_net.node(n).x, twin_net.node(n).x) << n;
    EXPECT_EQ(base_net.node(n).y, twin_net.node(n).y) << n;
    EXPECT_EQ(base_net.node(n).kind, twin_net.node(n).kind) << n;
  }
}

TEST(ScenarioWorlds, DockingChargesExactlyTheConfiguredStations) {
  const ScenarioMatrixConfig config = SmallMatrixConfig();
  const Scenario docked = BuiltinScenario("docked").value();
  const ScenarioWorld world = BuildScenarioWorld(docked, config);
  const std::vector<double>& surcharge =
      world.instance.node_service_surcharge_min;
  ASSERT_EQ(surcharge.size(),
            static_cast<size_t>(world.instance.network->num_nodes()));
  int charged = 0;
  for (int n = 0; n < world.instance.network->num_nodes(); ++n) {
    if (surcharge[n] > 0.0) {
      ++charged;
      EXPECT_EQ(world.instance.network->node(n).kind, NodeKind::kFactory);
      EXPECT_DOUBLE_EQ(surcharge[n], docked.topology.dock_surcharge_min);
    }
  }
  EXPECT_EQ(charged, docked.topology.docked_stations);

  // Purity: the same scenario builds the same world, stations included.
  const ScenarioWorld again = BuildScenarioWorld(docked, config);
  EXPECT_EQ(again.instance.node_service_surcharge_min, surcharge);
}

TEST(ScenarioWorlds, HeterogeneousFleetEpisodeIsFeasible) {
  const ScenarioMatrixConfig config = SmallMatrixConfig();
  ScenarioWorld world =
      BuildScenarioWorld(BuiltinScenario("hetero_fleet").value(), config);
  ASSERT_EQ(world.instance.vehicle_profiles.size(),
            static_cast<size_t>(config.num_vehicles));
  world.sim_config.record_plan = true;

  Environment sim(&world.instance, world.sim_config);
  MinIncrementalLengthDispatcher b1;
  const EpisodeResult result = RunEpisode(&sim, &b1);
  EXPECT_GT(result.num_served, 0);
  // The oracle replays every route under each vehicle's OWN class config
  // (capacity, speed, service time) — a planner that ignored per-vehicle
  // configs would produce overloads or missed deadlines here.
  EXPECT_TRUE(dpdp::testing::CheckEpisodeFeasible(world.instance, result));
}

TEST(ScenarioWorlds, AdversarialEpisodeIsFeasibleWithAllLayersOn) {
  const ScenarioMatrixConfig config = SmallMatrixConfig();
  ScenarioWorld world =
      BuildScenarioWorld(BuiltinScenario("adversarial").value(), config);
  world.sim_config.record_plan = true;
  EXPECT_TRUE(world.sim_config.travel.active());

  Environment sim(&world.instance, world.sim_config);
  MaxAcceptedOrdersDispatcher b3;
  const EpisodeResult result = RunEpisode(&sim, &b3);
  EXPECT_GT(result.num_decisions, 0);
  // NOTE: the oracle replays at base travel times, which the active travel
  // wave only slows down or speeds up uniformly per leg; the schedule check
  // uses the planner-independent earliest replay, so only run it when the
  // wave is off. Here we assert plan-structure invariants instead.
  for (size_t v = 0; v < result.routes.size(); ++v) {
    double load = 0.0;
    const VehicleConfig& cfg =
        world.instance.vehicle_config_of(static_cast<int>(v));
    for (const Stop& stop : result.routes[v]) {
      const Order& order = world.instance.order(stop.order_id);
      load += stop.type == StopType::kPickup ? order.quantity
                                             : -order.quantity;
      EXPECT_LE(load, cfg.capacity + 1e-9);
    }
    EXPECT_NEAR(load, 0.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// The matrix harness: worker-count invariance golden.

TEST(ScenarioMatrix, BitIdenticalAcrossThreadCounts) {
  ScenarioMatrixConfig config = SmallMatrixConfig();
  config.scenarios = {BuiltinScenario("baseline").value(),
                      BuiltinScenario("surge_noon").value(),
                      BuiltinScenario("adversarial").value()};
  config.methods = {"B1", "B3"};

  ThreadPool pool1(1);
  const ScenarioMatrixResult serial = RunScenarioMatrix(config, &pool1);
  ThreadPool pool4(4);
  const ScenarioMatrixResult parallel = RunScenarioMatrix(config, &pool4);

  ASSERT_EQ(serial.cells.size(), 6u);
  ASSERT_EQ(parallel.cells.size(), serial.cells.size());
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    const ScenarioCell& a = serial.cells[i];
    const ScenarioCell& b = parallel.cells[i];
    EXPECT_EQ(a.scenario, b.scenario) << i;
    EXPECT_EQ(a.method, b.method) << i;
    EXPECT_EQ(a.num_served, b.num_served) << i;
    EXPECT_EQ(a.nuv, b.nuv) << i;              // Bitwise.
    EXPECT_EQ(a.total_cost, b.total_cost) << i;
    EXPECT_EQ(a.reward, b.reward) << i;
    EXPECT_EQ(a.decisions, b.decisions) << i;
    EXPECT_EQ(a.degraded, b.degraded) << i;
    EXPECT_GT(a.decisions, 0) << i;
  }
  // The scenario.* rollup counted both sweeps.
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_GE(registry.GetCounter("scenario.cells")->Value(), 12u);
  EXPECT_GE(registry.GetCounter("scenario.worlds")->Value(), 6u);
}

TEST(ScenarioMatrix, CsvAndTableCoverEveryCell) {
  ScenarioMatrixConfig config = SmallMatrixConfig();
  config.scenarios = {BuiltinScenario("baseline").value(),
                      BuiltinScenario("docked").value()};
  config.methods = {"B1", "B2"};
  ThreadPool pool(2);
  const ScenarioMatrixResult result = RunScenarioMatrix(config, &pool);

  const std::string csv = result.ToCsv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);  // Header + 4.
  EXPECT_NE(csv.find("baseline,B1"), std::string::npos);
  EXPECT_NE(csv.find("docked,B2"), std::string::npos);
  const std::string table = result.FormatTable();
  EXPECT_NE(table.find("docked"), std::string::npos);
  EXPECT_NE(table.find("B2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Default-config guard: an inactive scenario must leave the existing
// datagen streams untouched (the repo-wide determinism goldens pin the
// sim side; this pins the datagen side explicitly).

TEST(ScenarioDefaults, InactiveScenarioMatchesPlainConfig) {
  const DayWorld w = MakeDayWorld();
  const OrderGenConfig plain = SmallOrderConfig();
  OrderGenConfig with_default_layer = SmallOrderConfig();
  with_default_layer.demand = scenario::DemandLayer{};
  with_default_layer.scenario_seed = 1234567;  // Unused while inactive.
  const std::vector<Order> a = GenerateDayOrders(
      *w.network, *w.demand, plain, /*day=*/1, 48, 1440.0, /*seed=*/17);
  const std::vector<Order> b =
      GenerateDayOrders(*w.network, *w.demand, with_default_layer, /*day=*/1,
                        48, 1440.0, /*seed=*/17);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pickup_node, b[i].pickup_node);
    EXPECT_EQ(a[i].quantity, b[i].quantity);
    EXPECT_EQ(a[i].create_time_min, b[i].create_time_min);
    EXPECT_EQ(a[i].latest_time_min, b[i].latest_time_min);
  }
}

}  // namespace
}  // namespace dpdp
