#include "scenario/scenario.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "net/road_network.h"
#include "util/rng.h"
#include "util/status.h"

namespace dpdp::scenario {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Floor for the composed travel multiplier: a config cannot make travel
/// instant (or negative) no matter how the wave and base scale interact.
constexpr double kMinTravelScale = 0.05;

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitWs(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

bool ParseDouble(const std::string& s, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

Status LineError(int line_no, const std::string& line,
                 const std::string& why) {
  return Status::InvalidArgument("scenario config line " +
                                 std::to_string(line_no) + " (\"" + line +
                                 "\"): " + why);
}

/// Structural validation shared by the parser and the built-ins.
Status ValidateScenario(const Scenario& s) {
  const DemandLayer& d = s.demand;
  if (d.rate_scale < 0.0 || d.rate_scale > 100.0) {
    return Status::InvalidArgument("demand.rate_scale out of [0, 100]");
  }
  for (const SurgeWindow& w : d.surges) {
    if (w.start_min < 0.0 || w.end_min <= w.start_min) {
      return Status::InvalidArgument("surge window must have end > start >= 0");
    }
    if (w.factor < 1.0 || w.factor > 100.0) {
      return Status::InvalidArgument("surge factor out of [1, 100]");
    }
    if (w.factory < -1) {
      return Status::InvalidArgument("surge factory must be >= -1");
    }
  }
  if (d.burst_prob < 0.0 || d.burst_prob > 1.0) {
    return Status::InvalidArgument("demand.burst_prob out of [0, 1]");
  }
  if (d.burst_orders < 0 || d.burst_orders > 10000) {
    return Status::InvalidArgument("demand.burst_orders out of [0, 10000]");
  }
  if (d.burst_duration_min <= 0.0) {
    return Status::InvalidArgument("demand.burst_duration must be positive");
  }
  const TravelLayer& t = s.travel;
  if (t.base_scale <= 0.0 || t.base_scale > 10.0) {
    return Status::InvalidArgument("travel.base_scale out of (0, 10]");
  }
  if (t.wave_amplitude < 0.0 || t.wave_amplitude >= 1.0) {
    return Status::InvalidArgument("travel.wave_amplitude out of [0, 1)");
  }
  if (t.wave_period_min <= 0.0) {
    return Status::InvalidArgument("travel.wave_period must be positive");
  }
  for (const FleetClass& c : s.fleet.classes) {
    if (c.weight <= 0.0) {
      return Status::InvalidArgument("fleet class weight must be positive");
    }
    const VehicleConfig& v = c.config;
    if (v.capacity <= 0.0 || v.fixed_cost < 0.0 || v.cost_per_km < 0.0 ||
        v.speed_kmph <= 0.0 || v.service_time_min < 0.0) {
      return Status::InvalidArgument("invalid fleet class \"" + c.name +
                                     "\"");
    }
  }
  const TopologyLayer& topo = s.topology;
  if (topo.num_campuses < 1 || topo.num_campuses > 64) {
    return Status::InvalidArgument("topology.campuses out of [1, 64]");
  }
  if (topo.campus_spacing_km <= 0.0) {
    return Status::InvalidArgument("topology.spacing_km must be positive");
  }
  if (topo.extra_depots < 0 || topo.extra_depots > 16) {
    return Status::InvalidArgument("topology.extra_depots out of [0, 16]");
  }
  if (topo.docked_stations < 0) {
    return Status::InvalidArgument("topology.docked_stations must be >= 0");
  }
  if (topo.dock_surcharge_min < 0.0 || topo.dock_surcharge_min > 120.0) {
    return Status::InvalidArgument("topology.dock_surcharge out of [0, 120]");
  }
  return Status::OK();
}

}  // namespace

double TravelLayer::ScaleAt(double minute) const {
  double scale = base_scale;
  if (wave_amplitude != 0.0 && wave_period_min > 0.0) {
    const double phase =
        2.0 * kPi * (minute - wave_phase_min) / wave_period_min;
    // Crest at wave_phase_min (and every period after).
    scale *= 1.0 + wave_amplitude * std::cos(phase);
  }
  return std::max(scale, kMinTravelScale);
}

std::vector<VehicleConfig> FleetLayer::BuildProfiles(int num_vehicles,
                                                     uint64_t seed) const {
  std::vector<VehicleConfig> out;
  if (classes.empty() || num_vehicles <= 0) return out;
  double total_weight = 0.0;
  for (const FleetClass& c : classes) total_weight += c.weight;
  DPDP_CHECK(total_weight > 0.0);

  // Largest-remainder apportionment: floor the exact shares, then hand the
  // leftover seats to the largest fractional parts (ties to lower index).
  const int n = static_cast<int>(classes.size());
  std::vector<int> count(n, 0);
  std::vector<std::pair<double, int>> fraction;
  fraction.reserve(n);
  int assigned = 0;
  for (int i = 0; i < n; ++i) {
    const double exact = classes[i].weight / total_weight * num_vehicles;
    count[i] = static_cast<int>(std::floor(exact));
    assigned += count[i];
    fraction.emplace_back(exact - count[i], i);
  }
  std::stable_sort(fraction.begin(), fraction.end(),
                   [](const std::pair<double, int>& a,
                      const std::pair<double, int>& b) {
                     return a.first > b.first;
                   });
  for (int k = 0; k < num_vehicles - assigned; ++k) {
    ++count[fraction[k % n].second];
  }

  out.reserve(num_vehicles);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < count[i]; ++j) out.push_back(classes[i].config);
  }
  // Decorrelate class membership from vehicle index / depot assignment.
  Rng rng(Rng::DeriveSeed(seed, kStreamFleet));
  rng.Shuffle(&out);
  return out;
}

Result<Scenario> ParseScenario(const std::string& text) {
  Scenario s;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;

    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return LineError(line_no, raw, "expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return LineError(line_no, raw, "empty key or value");
    }

    if (key == "name") {
      s.name = value;
    } else if (key == "seed") {
      if (!ParseU64(value, &s.seed)) {
        return LineError(line_no, raw, "seed must be an unsigned integer");
      }
    } else if (key == "demand.rate_scale") {
      if (!ParseDouble(value, &s.demand.rate_scale)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "demand.burst_prob") {
      if (!ParseDouble(value, &s.demand.burst_prob)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "demand.burst_orders") {
      if (!ParseInt(value, &s.demand.burst_orders)) {
        return LineError(line_no, raw, "expected an integer");
      }
    } else if (key == "demand.burst_duration") {
      if (!ParseDouble(value, &s.demand.burst_duration_min)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "demand.surge") {
      const std::vector<std::string> toks = SplitWs(value);
      if (toks.size() != 3 && toks.size() != 4) {
        return LineError(line_no, raw,
                         "expected <start_min> <end_min> <factor> [factory]");
      }
      SurgeWindow w;
      if (!ParseDouble(toks[0], &w.start_min) ||
          !ParseDouble(toks[1], &w.end_min) ||
          !ParseDouble(toks[2], &w.factor) ||
          (toks.size() == 4 && !ParseInt(toks[3], &w.factory))) {
        return LineError(line_no, raw, "malformed surge window");
      }
      s.demand.surges.push_back(w);
    } else if (key == "travel.base_scale") {
      if (!ParseDouble(value, &s.travel.base_scale)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "travel.wave_amplitude") {
      if (!ParseDouble(value, &s.travel.wave_amplitude)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "travel.wave_period") {
      if (!ParseDouble(value, &s.travel.wave_period_min)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "travel.wave_phase") {
      if (!ParseDouble(value, &s.travel.wave_phase_min)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "fleet.class") {
      const std::vector<std::string> toks = SplitWs(value);
      if (toks.size() != 7) {
        return LineError(line_no, raw,
                         "expected <name> <weight> <capacity> <fixed_cost> "
                         "<cost_per_km> <speed_kmph> <service_time_min>");
      }
      FleetClass c;
      c.name = toks[0];
      if (!ParseDouble(toks[1], &c.weight) ||
          !ParseDouble(toks[2], &c.config.capacity) ||
          !ParseDouble(toks[3], &c.config.fixed_cost) ||
          !ParseDouble(toks[4], &c.config.cost_per_km) ||
          !ParseDouble(toks[5], &c.config.speed_kmph) ||
          !ParseDouble(toks[6], &c.config.service_time_min)) {
        return LineError(line_no, raw, "malformed fleet class");
      }
      s.fleet.classes.push_back(std::move(c));
    } else if (key == "topology.campuses") {
      if (!ParseInt(value, &s.topology.num_campuses)) {
        return LineError(line_no, raw, "expected an integer");
      }
    } else if (key == "topology.spacing_km") {
      if (!ParseDouble(value, &s.topology.campus_spacing_km)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else if (key == "topology.extra_depots") {
      if (!ParseInt(value, &s.topology.extra_depots)) {
        return LineError(line_no, raw, "expected an integer");
      }
    } else if (key == "topology.docked_stations") {
      if (!ParseInt(value, &s.topology.docked_stations)) {
        return LineError(line_no, raw, "expected an integer");
      }
    } else if (key == "topology.dock_surcharge") {
      if (!ParseDouble(value, &s.topology.dock_surcharge_min)) {
        return LineError(line_no, raw, "expected a number");
      }
    } else {
      return LineError(line_no, raw, "unknown key \"" + key + "\"");
    }
  }
  DPDP_RETURN_IF_ERROR(ValidateScenario(s));
  return s;
}

Result<Scenario> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open scenario config " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<Scenario> parsed = ParseScenario(buf.str());
  if (parsed.ok() && parsed.value().name == "baseline") {
    // A file without an explicit name is named after itself.
    Scenario s = std::move(parsed).value();
    s.name = path;
    return s;
  }
  return parsed;
}

const std::vector<std::string>& BuiltinScenarioNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "baseline",      "surge_noon", "bursty", "traffic_waves",
      "hetero_fleet",  "twin_campus", "docked", "adversarial"};
  return *names;
}

Result<Scenario> BuiltinScenario(const std::string& name) {
  Scenario s;
  s.name = name;
  if (name == "baseline") {
    return s;
  }
  if (name == "surge_noon") {
    s.demand.surges.push_back({540.0, 780.0, 2.5, -1});
    return s;
  }
  if (name == "bursty") {
    s.demand.burst_prob = 0.08;
    s.demand.burst_orders = 6;
    s.demand.burst_duration_min = 20.0;
    return s;
  }
  if (name == "traffic_waves") {
    s.travel.wave_amplitude = 0.35;
    s.travel.wave_period_min = 720.0;
    s.travel.wave_phase_min = 510.0;  // Morning-rush crest at 08:30.
    return s;
  }
  if (name == "hetero_fleet") {
    FleetClass minivan;
    minivan.name = "minivan";
    minivan.weight = 2.0;
    minivan.config = {60.0, 180.0, 1.5, 50.0, 8.0};
    FleetClass van;
    van.name = "van";
    van.weight = 2.0;
    van.config = {100.0, 300.0, 2.0, 40.0, 10.0};
    FleetClass truck;
    truck.name = "truck";
    truck.weight = 1.0;
    truck.config = {220.0, 520.0, 3.2, 30.0, 14.0};
    s.fleet.classes = {minivan, van, truck};
    return s;
  }
  if (name == "twin_campus") {
    s.topology.num_campuses = 2;
    s.topology.campus_spacing_km = 25.0;
    return s;
  }
  if (name == "docked") {
    s.topology.docked_stations = 8;
    s.topology.dock_surcharge_min = 4.0;
    return s;
  }
  if (name == "adversarial") {
    s.demand.rate_scale = 1.2;
    s.demand.surges.push_back({540.0, 780.0, 2.0, -1});
    s.demand.burst_prob = 0.05;
    s.demand.burst_orders = 5;
    s.demand.burst_duration_min = 20.0;
    s.travel.wave_amplitude = 0.3;
    s.travel.wave_period_min = 720.0;
    s.travel.wave_phase_min = 510.0;
    FleetClass small;
    small.name = "minivan";
    small.weight = 1.0;
    small.config = {60.0, 180.0, 1.5, 50.0, 8.0};
    FleetClass van;
    van.name = "van";
    van.weight = 2.0;
    van.config = {100.0, 300.0, 2.0, 40.0, 10.0};
    s.fleet.classes = {small, van};
    s.topology.docked_stations = 6;
    s.topology.dock_surcharge_min = 3.0;
    return s;
  }
  return Status::InvalidArgument("unknown built-in scenario \"" + name +
                                 "\"");
}

void ApplyFleetLayer(const FleetLayer& layer, uint64_t seed,
                     Instance* instance) {
  if (!layer.active()) return;
  instance->vehicle_profiles =
      layer.BuildProfiles(instance->num_vehicles(), seed);
}

void ApplyDockingLayer(const TopologyLayer& layer, uint64_t seed,
                       Instance* instance) {
  if (layer.docked_stations <= 0 || layer.dock_surcharge_min <= 0.0) return;
  const RoadNetwork& network = *instance->network;
  std::vector<int> candidates = network.factory_ids();
  Rng rng(Rng::DeriveSeed(seed, kStreamDocking));
  rng.Shuffle(&candidates);
  const int picks = std::min(layer.docked_stations,
                             static_cast<int>(candidates.size()));
  instance->node_service_surcharge_min.assign(network.num_nodes(), 0.0);
  for (int i = 0; i < picks; ++i) {
    instance->node_service_surcharge_min[candidates[i]] =
        layer.dock_surcharge_min;
  }
}

}  // namespace dpdp::scenario
