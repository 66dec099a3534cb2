#include "exp/scenario_matrix.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>

#include "baselines/greedy_baselines.h"
#include "exp/harness.h"
#include "obs/metrics.h"
#include "sim/environment.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace dpdp {

namespace {

/// Sub-stream tag separating the instance-sample draw from per-cell seeds.
constexpr uint64_t kInstanceSampleTag = 0x5ce7a110u;

std::unique_ptr<Dispatcher> MakeBaselineByName(const std::string& method) {
  if (method == "B1") return std::make_unique<MinIncrementalLengthDispatcher>();
  if (method == "B2") return std::make_unique<MinTotalLengthDispatcher>();
  if (method == "B3") return std::make_unique<MaxAcceptedOrdersDispatcher>();
  return nullptr;
}

ScenarioCell RunCell(const ScenarioWorld& world, const std::string& sc_name,
                     const std::string& method, uint64_t cell_seed,
                     int episodes) {
  const WallTimer timer;
  EpisodeResult result;
  std::unique_ptr<Dispatcher> baseline = MakeBaselineByName(method);
  if (baseline != nullptr) {
    Environment env(&world.instance, world.sim_config);
    result = RunEpisode(&env, baseline.get());
  } else {
    const DrlOutcome outcome =
        TrainEvalOnInstance(world.instance, nn::Matrix(), method, cell_seed,
                            episodes, &world.sim_config);
    result = outcome.eval;
  }

  ScenarioCell cell;
  cell.scenario = sc_name;
  cell.method = method;
  cell.num_orders = result.num_orders;
  cell.num_served = result.num_served;
  cell.service_rate =
      result.num_orders > 0
          ? static_cast<double>(result.num_served) / result.num_orders
          : 0.0;
  cell.nuv = result.nuv;
  cell.total_cost = result.total_cost;
  cell.reward = -result.total_cost;
  cell.decisions = result.num_decisions;
  cell.degraded = result.num_degraded_decisions;
  cell.breakdowns = result.num_breakdowns;
  cell.replanned = result.num_replanned;
  cell.cancelled = result.num_cancelled;
  cell.wall_seconds = timer.ElapsedSeconds();
  return cell;
}

}  // namespace

ScenarioWorld BuildScenarioWorld(const scenario::Scenario& sc,
                                 const ScenarioMatrixConfig& config) {
  DpdpDataset::Config dc =
      StandardDatasetConfig(config.seed, config.mean_orders_per_day);
  // Demand layers ride inside the order generator; the topology layer
  // shapes the campus itself. Neither touches the baseline sub-streams.
  dc.orders.demand = sc.demand;
  dc.orders.scenario_seed = sc.seed;
  dc.campus.num_campuses = sc.topology.num_campuses;
  dc.campus.campus_spacing_km = sc.topology.campus_spacing_km;
  dc.campus.extra_depots = sc.topology.extra_depots;

  ScenarioWorld world;
  world.dataset = std::make_shared<DpdpDataset>(dc);
  world.instance = world.dataset->SampleInstance(
      "scenario:" + sc.name, config.num_orders, config.num_vehicles,
      config.day_lo, config.day_hi,
      Rng::DeriveSeed(Rng::DeriveSeed(config.seed, kInstanceSampleTag),
                      sc.seed));
  scenario::ApplyFleetLayer(sc.fleet, sc.seed, &world.instance);
  scenario::ApplyDockingLayer(sc.topology, sc.seed, &world.instance);
  // Layer application can tighten capacity or service time; re-validate so
  // a mis-specified scenario fails at build, not mid-episode.
  DPDP_CHECK_OK(ValidateInstance(world.instance));
  world.sim_config.travel = sc.travel;
  return world;
}

ScenarioMatrixResult RunScenarioMatrix(const ScenarioMatrixConfig& config,
                                       ThreadPool* pool) {
  const int num_scenarios = static_cast<int>(config.scenarios.size());
  const int num_methods = static_cast<int>(config.methods.size());
  DPDP_CHECK(num_scenarios > 0);
  DPDP_CHECK(num_methods > 0);
  if (pool == nullptr) pool = GlobalThreadPool();

  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* worlds_counter = registry.GetCounter("scenario.worlds");
  obs::Counter* cells_counter = registry.GetCounter("scenario.cells");
  obs::Counter* decisions_counter = registry.GetCounter("scenario.decisions");
  obs::Counter* degraded_counter =
      registry.GetCounter("scenario.degraded_decisions");
  obs::Counter* served_counter =
      registry.GetCounter("scenario.orders_served");

  // Worlds first (one per scenario, shared read-only by that row's cells).
  std::vector<ScenarioWorld> worlds(num_scenarios);
  pool->ParallelFor(num_scenarios, [&](int s) {
    worlds[s] = BuildScenarioWorld(config.scenarios[s], config);
    worlds_counter->Add(1);
  });

  ScenarioMatrixResult result;
  result.num_scenarios = num_scenarios;
  result.num_methods = num_methods;
  result.cells.resize(static_cast<size_t>(num_scenarios) * num_methods);
  pool->ParallelFor(num_scenarios * num_methods, [&](int i) {
    const int s = i / num_methods;
    const int m = i % num_methods;
    const uint64_t cell_seed = Rng::DeriveSeed(
        Rng::DeriveSeed(config.seed, static_cast<uint64_t>(s)),
        static_cast<uint64_t>(m));
    const ScenarioCell cell =
        RunCell(worlds[s], config.scenarios[s].name, config.methods[m],
                cell_seed, config.episodes);
    cells_counter->Add(1);
    decisions_counter->Add(static_cast<uint64_t>(cell.decisions));
    degraded_counter->Add(static_cast<uint64_t>(cell.degraded));
    served_counter->Add(static_cast<uint64_t>(cell.num_served));
    result.cells[i] = cell;
  });
  return result;
}

std::string ScenarioMatrixResult::FormatTable() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-14s %-10s %6s %10s %8s %6s %6s %5s\n",
                "scenario", "method", "NUV", "TC", "served", "rate", "dec",
                "deg");
  out << line;
  for (const ScenarioCell& c : cells) {
    char served[32];
    std::snprintf(served, sizeof(served), "%d/%d", c.num_served,
                  c.num_orders);
    std::snprintf(line, sizeof(line),
                  "%-14s %-10s %6.1f %10.1f %8s %6.2f %6d %5d\n",
                  c.scenario.c_str(), c.method.c_str(), c.nuv, c.total_cost,
                  served, c.service_rate, c.decisions, c.degraded);
    out << line;
  }
  return out.str();
}

std::string ScenarioMatrixResult::ToCsv() const {
  std::ostringstream out;
  out << "scenario,method,num_orders,num_served,service_rate,nuv,"
         "total_cost,reward,decisions,degraded,breakdowns,replanned,"
         "cancelled,wall_seconds\n";
  char line[512];
  for (const ScenarioCell& c : cells) {
    std::snprintf(line, sizeof(line),
                  "%s,%s,%d,%d,%.17g,%.17g,%.17g,%.17g,%d,%d,%d,%d,%d,%.6f\n",
                  c.scenario.c_str(), c.method.c_str(), c.num_orders,
                  c.num_served, c.service_rate, c.nuv, c.total_cost, c.reward,
                  c.decisions, c.degraded, c.breakdowns, c.replanned,
                  c.cancelled, c.wall_seconds);
    out << line;
  }
  return out.str();
}

}  // namespace dpdp
