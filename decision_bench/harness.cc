#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/load_generator.h"
#include "tests/test_util.h"
#include "util/timer.h"

namespace dpdp::bench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, JsonString(value));
}

void Report::Config(const std::string& key, double value) {
  config_.emplace_back(key, Num(value));
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

bool Report::correct() const {
  for (const CheckEntry& c : checks_) {
    if (!c.ok) return false;
  }
  return !checks_.empty();
}

std::string Report::ToJson(const Options& options) const {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(options.workload)
     << ", \"seed\": " << options.seed
     << ", \"seconds\": " << Num(options.seconds)
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"build_type\": " << JsonString(DPDP_BENCH_BUILD_TYPE)
     << ", \"compiler\": " << JsonString(DPDP_BENCH_COMPILER)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"config\": {";
  for (size_t i = 0; i < config_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(config_[i].first) << ": "
       << config_[i].second;
  }
  os << "}, \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << JsonString(checks_[i].name)
       << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
       << ", \"detail\": " << JsonString(checks_[i].detail) << "}";
  }
  os << "], \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(metrics_[i].name)
       << ": {\"value\": " << Num(metrics_[i].value)
       << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileMs(const std::vector<double>& samples_s, double q) {
  return serve::PercentileNearestRank(samples_s, q) * 1e3;
}

void AddDecisionMetrics(std::vector<Sample> samples, long decisions,
                        int64_t start_ns, int64_t end_ns,
                        const std::vector<double>& window_rates,
                        Report* report) {
  constexpr long kMinWindowSamples = 1000;
  constexpr long kMaxWindows = 15;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_ns < b.end_ns; });
  const long n = static_cast<long>(samples.size());
  const long windows =
      std::max(1L, std::min(kMaxWindows, n / kMinWindowSamples));
  std::vector<double> rates, p50s, p90s, p99s;
  long min_beyond = n;
  for (long w = 0; w < windows; ++w) {
    const long begin = w * n / windows;
    const long end = (w + 1) * n / windows;
    if (end <= begin) continue;
    std::vector<double> latencies;
    for (long i = begin; i < end; ++i) latencies.push_back(samples[i].latency_s);
    const int64_t from = begin == 0 ? start_ns : samples[begin - 1].end_ns;
    rates.push_back(static_cast<double>(end - begin) /
                    Seconds(from, samples[end - 1].end_ns));
    const double p99_ms = PercentileMs(latencies, 0.99);
    p50s.push_back(PercentileMs(latencies, 0.50));
    p90s.push_back(PercentileMs(latencies, 0.90));
    p99s.push_back(p99_ms);
    min_beyond = std::min<long>(
        min_beyond, std::count_if(latencies.begin(), latencies.end(),
                                  [&](double s) { return s * 1e3 > p99_ms; }));
  }
  std::vector<double> all;
  for (const Sample& s : samples) all.push_back(s.latency_s);
  report->Metric("decisions_per_s",
                 Median(window_rates.empty() ? rates : window_rates), "1/s");
  report->Metric("decision_p50_ms", Median(p50s), "ms");
  report->Metric("decision_p90_ms", Median(p90s), "ms");
  report->Metric("decision_p99_ms", Median(p99s), "ms");
  report->Metric("windows", static_cast<double>(
                     window_rates.empty() ? windows : window_rates.size()),
                 "count");
  report->Metric("decision_samples", static_cast<double>(n), "count");
  report->Metric("window_samples_beyond_p99_min",
                 static_cast<double>(n > 0 ? min_beyond : 0), "count");
  report->Metric("run_decisions_per_s",
                 static_cast<double>(decisions) / Seconds(start_ns, end_ns),
                 "1/s");
  report->Metric("run_decision_p50_ms", PercentileMs(all, 0.50), "ms");
  report->Metric("run_decision_p90_ms", PercentileMs(all, 0.90), "ms");
  report->Metric("run_decision_p99_ms", PercentileMs(all, 0.99), "ms");
  const std::vector<double>& shown =
      window_rates.empty() ? rates : window_rates;
  for (size_t w = 0; w < shown.size(); ++w) {
    report->Metric("window" + std::to_string(w) + "_decisions_per_s",
                   shown[w], "1/s");
  }
  for (size_t w = 0; w < p99s.size(); ++w) {
    report->Metric("window" + std::to_string(w) + "_decision_p99_ms", p99s[w],
                   "ms");
  }
}

double PeakRssMb() {
  // VmHWM is the peak of this process image alone. ru_maxrss also keeps
  // the pre-exec peak of the forked parent (a Python launcher's ~14 MiB),
  // so it is only the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  last_hop_ns_ = MonotonicNanos();
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int cpu : cpus_) CPU_SET(cpu, &all);
  sched_setaffinity(0, sizeof(all), &all);
}

void CpuRotation::Tick() {
  if (cpus_.size() < 2) return;
  const int64_t now = MonotonicNanos();
  if (now - last_hop_ns_ < kHopNs) return;
  last_hop_ns_ = now;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

void Tracer::Step(Chain* chain, const char* name, int64_t start_ns,
                  int64_t end_ns) {
  if (!enabled_) return;
  chain->steps.push_back({name, start_ns, end_ns});
}

void Tracer::EndDecision(Chain* chain) {
  if (!enabled_) return;
  obs::TraceContext context = obs::NewTraceContext();
  for (const Chain::StepSpan& step : chain->steps) {
    context = obs::RecordHop(step.name, context, step.start_ns, step.end_ns,
                             obs::FlowPhase::kNone);
    Stat(step.name, Seconds(step.start_ns, step.end_ns));
  }
  chain->steps.clear();
}

void Tracer::Span(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  obs::RecordHop(name, obs::NewTraceContext(), start_ns, end_ns,
                 obs::FlowPhase::kNone);
  Stat(name, Seconds(start_ns, end_ns));
}

void Tracer::Stat(const char* name, double seconds) {
  if (!enabled_) return;
  Stats& stats = stats_[name];
  ++stats.count;
  stats.total_s += seconds;
  stats.samples_s.push_back(seconds);
}

const Tracer::Stats& Tracer::Get(const std::string& name) const {
  static const Stats kEmpty;
  const auto it = stats_.find(name);
  return it == stats_.end() ? kEmpty : it->second;
}

void Tracer::Merge(const Tracer& other) {
  for (const auto& [name, theirs] : other.stats_) {
    Stats& mine = stats_[name];
    mine.count += theirs.count;
    mine.total_s += theirs.total_s;
    mine.samples_s.insert(mine.samples_s.end(), theirs.samples_s.begin(),
                          theirs.samples_s.end());
  }
}

std::map<std::string, RegistryDelta::Value> RegistryDelta::Take() {
  std::map<std::string, Value> values;
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Global().Snapshot()) {
    Value& v = values[m.name];
    v.value = m.value;
    v.sum = m.sum;
  }
  return values;
}

void RegistryDelta::Stop() {
  delta_ = Take();
  for (auto& [name, v] : delta_) {
    const auto it = begin_.find(name);
    if (it == begin_.end()) continue;
    v.value -= it->second.value;
    v.sum -= it->second.sum;
  }
}

double RegistryDelta::Counter(const std::string& name) const {
  const auto it = delta_.find(name);
  return it == delta_.end() ? 0.0 : it->second.value;
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  const auto it = delta_.find(name);
  return it == delta_.end() ? 0.0 : it->second.sum;
}

double RecomputeTotalCost(const Instance& instance,
                          const EpisodeResult& result) {
  const RoadNetwork& net = *instance.network;
  double nuv = 0.0;
  double ttl = 0.0;
  for (size_t v = 0; v < result.routes.size(); ++v) {
    const std::vector<Stop>& route = result.routes[v];
    if (route.empty()) continue;
    const int depot = instance.vehicle_depots[v];
    double length = 0.0;
    int node = depot;
    for (const Stop& stop : route) {
      length += net.Distance(node, stop.node);
      node = stop.node;
    }
    length += net.Distance(node, depot);
    nuv += 1.0;
    ttl += length;
  }
  const VehicleConfig& cfg = instance.vehicle_config;
  return cfg.fixed_cost * nuv + cfg.cost_per_km * ttl;
}

void EpisodeChecker::Add(const Instance& instance,
                         const EpisodeResult& result,
                         const std::string& label) {
  ++episodes_;
  routes_ += static_cast<long>(result.routes.size());
  const ::testing::AssertionResult feasible =
      dpdp::testing::CheckEpisodeFeasible(instance, result);
  if (!feasible && oracle_failure_.empty()) {
    oracle_failure_ = label + ": " + feasible.message();
  }
  const double recomputed = RecomputeTotalCost(instance, result);
  if (std::abs(recomputed - result.total_cost) >
          1e-9 * std::max(1.0, std::abs(result.total_cost)) &&
      tc_failure_.empty()) {
    tc_failure_ = label + ": reported TC " + Num(result.total_cost) +
                  ", recomputed " + Num(recomputed);
  }
}

void EpisodeChecker::Finish(Report* report) const {
  const std::string scope = std::to_string(episodes_) + " episodes, " +
                            std::to_string(routes_) + " routes";
  report->Check("feasibility_oracle", episodes_ > 0 && oracle_failure_.empty(),
                oracle_failure_.empty() ? scope : oracle_failure_);
  report->Check("tc_recomputed", episodes_ > 0 && tc_failure_.empty(),
                tc_failure_.empty() ? scope : tc_failure_);
}

void CountOrders(const EpisodeResult& result, long* attempted, long* failed) {
  *attempted += result.num_decisions + result.num_unserved;
  *failed += result.num_degraded_decisions + result.num_unserved;
}

}  // namespace dpdp::bench
