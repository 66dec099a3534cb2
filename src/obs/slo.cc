#include "obs/slo.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/flight_recorder.h"
#include "util/env.h"

namespace dpdp::obs {
namespace {

constexpr size_t kHistoryCapacity = 128;

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Finds `name` in a sorted-by-name snapshot (the Snapshot() contract).
const MetricSnapshot* Find(const std::vector<MetricSnapshot>& snapshot,
                           const std::string& name) {
  const auto it = std::lower_bound(
      snapshot.begin(), snapshot.end(), name,
      [](const MetricSnapshot& m, const std::string& n) { return m.name < n; });
  if (it == snapshot.end() || it->name != name) return nullptr;
  return &*it;
}

}  // namespace

SloConfig SloConfigFromEnv() {
  SloConfig config;
  config.window_ms =
      EnvIntStrict("DPDP_SLO_WINDOW_MS", config.window_ms, 1, 86400000);
  // Objectives below zero are off; -1 is the documented spelling.
  config.p99_latency_s = EnvDoubleStrict("DPDP_SLO_P99_S",
                                         config.p99_latency_s, -1.0, 3600.0);
  config.max_shed_rate = EnvDoubleStrict("DPDP_SLO_MAX_SHED_RATE",
                                         config.max_shed_rate, -1.0, 1.0);
  config.max_deadline_rate = EnvDoubleStrict(
      "DPDP_SLO_MAX_DEADLINE_RATE", config.max_deadline_rate, -1.0, 1.0);
  config.error_budget =
      EnvDoubleStrict("DPDP_SLO_BUDGET", config.error_budget, 0.0, 1.0);
  return config;
}

SloMonitor::SloMonitor(const SloConfig& config)
    : config_(config),
      enabled_(config.p99_latency_s >= 0.0 || config.max_shed_rate >= 0.0 ||
               config.max_deadline_rate >= 0.0) {}

void SloMonitor::TickAt(int64_t now_ns) {
  if (!enabled_) return;
  if (!anchored_) {
    // First tick only anchors: capture the current counter / bucket totals
    // as the delta baselines so the first real window does not absorb
    // everything the process did before the monitor started.
    const std::vector<MetricSnapshot> snapshot =
        MetricsRegistry::Global().Snapshot();
    auto baseline = [&snapshot](const std::string& name, double* prev) {
      const MetricSnapshot* m = Find(snapshot, name);
      *prev = m != nullptr ? m->value : 0.0;
    };
    baseline(config_.requests_metric, &prev_requests_);
    baseline(config_.shed_metric, &prev_shed_);
    baseline(config_.deadline_metric, &prev_deadline_);
    const MetricSnapshot* latency = Find(snapshot, config_.latency_metric);
    if (latency != nullptr &&
        latency->kind == MetricSnapshot::Kind::kHistogram) {
      prev_latency_buckets_ = latency->buckets;
      prev_latency_count_ = latency->count;
    }
    last_eval_ns_ = now_ns;
    anchored_ = true;
    return;
  }
  const int64_t window_ns = static_cast<int64_t>(config_.window_ms) * 1000000;
  if (window_ns <= 0 || now_ns - last_eval_ns_ < window_ns) return;
  (void)EvaluateWindowAt(now_ns);
}

SloWindowReport SloMonitor::EvaluateWindowAt(int64_t now_ns) {
  const std::vector<MetricSnapshot> snapshot =
      MetricsRegistry::Global().Snapshot();

  SloWindowReport report;
  report.window_start_ns = last_eval_ns_;
  report.window_end_ns = now_ns;
  last_eval_ns_ = now_ns;

  auto counter_delta = [&snapshot](const std::string& name, double* prev) {
    const MetricSnapshot* m = Find(snapshot, name);
    const double absolute = m != nullptr ? m->value : *prev;
    const double delta = absolute - *prev;
    *prev = absolute;
    return delta < 0.0 ? 0.0 : delta;
  };
  report.requests = static_cast<uint64_t>(
      counter_delta(config_.requests_metric, &prev_requests_));
  report.shed =
      static_cast<uint64_t>(counter_delta(config_.shed_metric, &prev_shed_));
  report.deadline_exceeded = static_cast<uint64_t>(
      counter_delta(config_.deadline_metric, &prev_deadline_));

  // Window p99: subtract the previous cumulative bucket counts from the
  // current ones and quantile the difference — the histogram of ONLY the
  // samples that arrived inside this window.
  const MetricSnapshot* latency = Find(snapshot, config_.latency_metric);
  if (latency != nullptr &&
      latency->kind == MetricSnapshot::Kind::kHistogram) {
    MetricSnapshot window = *latency;
    if (prev_latency_buckets_.size() == window.buckets.size()) {
      for (size_t i = 0; i < window.buckets.size(); ++i) {
        window.buckets[i] -= prev_latency_buckets_[i];
      }
      window.count -= prev_latency_count_;
    }
    // Window sum is unknowable from cumulative sums alone once deltas can
    // be zero-count; approximate with count-weighted mean which only
    // matters for the overflow-clamp path of HistogramQuantile.
    window.sum = latency->count > 0
                     ? latency->sum / static_cast<double>(latency->count) *
                           static_cast<double>(window.count)
                     : 0.0;
    prev_latency_buckets_ = latency->buckets;
    prev_latency_count_ = latency->count;
    report.latency_count = window.count;
    report.p99_s = HistogramQuantile(window, 0.99);
  }

  const double requests = static_cast<double>(report.requests);
  report.shed_rate =
      requests > 0.0 ? static_cast<double>(report.shed) / requests : 0.0;
  report.deadline_rate =
      requests > 0.0
          ? static_cast<double>(report.deadline_exceeded) / requests
          : 0.0;

  report.latency_breach = config_.p99_latency_s >= 0.0 &&
                          report.latency_count > 0 &&
                          report.p99_s > config_.p99_latency_s;
  report.shed_breach = config_.max_shed_rate >= 0.0 && requests > 0.0 &&
                       report.shed_rate > config_.max_shed_rate;
  report.deadline_breach = config_.max_deadline_rate >= 0.0 &&
                           requests > 0.0 &&
                           report.deadline_rate > config_.max_deadline_rate;

  anchored_ = true;

  if (windows_counter_ == nullptr) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    windows_counter_ = registry.GetCounter("slo.windows");
    breaches_counter_ = registry.GetCounter("slo.breaches");
    latency_breaches_ = registry.GetCounter("slo.latency_breaches");
    shed_breaches_ = registry.GetCounter("slo.shed_breaches");
    deadline_breaches_ = registry.GetCounter("slo.deadline_breaches");
    budget_burn_gauge_ = registry.GetGauge("slo.budget_burn");
  }
  ++windows_;
  windows_counter_->Add(1);
  if (report.latency_breach) latency_breaches_->Add(1);
  if (report.shed_breach) shed_breaches_->Add(1);
  if (report.deadline_breach) deadline_breaches_->Add(1);
  if (report.breached()) {
    ++breached_windows_;
    breaches_counter_->Add(1);
    if (!was_breached_) {
      // Good -> breached edge: capture the black box exactly once per
      // incident, not once per breached window.
      RecordFlight(FlightEventKind::kSloBreach, "slo.breach", -1,
                   report.latency_breach ? 1 : 0,
                   report.shed_breach ? 1 : (report.deadline_breach ? 2 : 0));
      FlightRecorderAutoDump("slo_breach");
    }
  }
  was_breached_ = report.breached();
  budget_burn_gauge_->Set(BudgetBurn());

  history_.push_back(report);
  while (history_.size() > kHistoryCapacity) history_.pop_front();
  return report;
}

std::vector<SloWindowReport> SloMonitor::History() const {
  return std::vector<SloWindowReport>(history_.begin(), history_.end());
}

double SloMonitor::BudgetBurn() const {
  if (windows_ == 0 || config_.error_budget <= 0.0) return 0.0;
  return static_cast<double>(breached_windows_) /
         (config_.error_budget * static_cast<double>(windows_));
}

std::string SloMonitor::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"config\": {\"window_ms\": " << config_.window_ms
     << ", \"p99_latency_s\": " << FormatDouble(config_.p99_latency_s)
     << ", \"max_shed_rate\": " << FormatDouble(config_.max_shed_rate)
     << ", \"max_deadline_rate\": " << FormatDouble(config_.max_deadline_rate)
     << ", \"error_budget\": " << FormatDouble(config_.error_budget)
     << ", \"latency_metric\": \"" << config_.latency_metric << "\"},\n"
     << "  \"enabled\": " << (enabled_ ? "true" : "false")
     << ",\n  \"windows\": " << windows_
     << ",\n  \"breached_windows\": " << breached_windows_
     << ",\n  \"budget_burn\": " << FormatDouble(BudgetBurn())
     << ",\n  \"recent\": [";
  for (size_t i = 0; i < history_.size(); ++i) {
    const SloWindowReport& w = history_[i];
    os << (i ? "," : "") << "\n    {\"start_ns\": " << w.window_start_ns
       << ", \"end_ns\": " << w.window_end_ns
       << ", \"requests\": " << w.requests << ", \"shed\": " << w.shed
       << ", \"deadline_exceeded\": " << w.deadline_exceeded
       << ", \"p99_s\": " << FormatDouble(w.p99_s)
       << ", \"shed_rate\": " << FormatDouble(w.shed_rate)
       << ", \"deadline_rate\": " << FormatDouble(w.deadline_rate)
       << ", \"breached\": " << (w.breached() ? "true" : "false") << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace dpdp::obs
