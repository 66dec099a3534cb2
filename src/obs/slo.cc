#include "obs/slo.h"

#include <sstream>

#include "obs/flight_recorder.h"
#include "util/env.h"

namespace dpdp::obs {
namespace {

using internal::FormatDouble;

constexpr size_t kHistoryCapacity = 128;

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
               config.max_deadline_rate >= 0.0),
      window_(static_cast<int64_t>(config.window_ms) * 1000000) {
  // The Telemetry thread sleeps until the window is due; a zero window
  // would make that wake spin.
  DPDP_CHECK(config.window_ms >= 1);
}

void SloMonitor::TickAt(int64_t now_ns,
                        const std::vector<MetricSnapshot>& snapshot) {
  if (!enabled_ || !window_.Due(now_ns)) return;
  if (window_.anchored()) {
    (void)EvaluateWindowAt(now_ns, snapshot);
  } else {
    // Anchor only, so the first real window does not absorb everything
    // the process did before the monitor started.
    (void)window_.Close(now_ns, snapshot);
  }
}

SloWindowReport SloMonitor::EvaluateWindowAt(
    int64_t now_ns, const std::vector<MetricSnapshot>& snapshot) {
  SloWindowReport report;
  report.window_start_ns = window_.last_close_ns();
  report.window_end_ns = now_ns;
  const std::vector<MetricSnapshot> window = window_.Close(now_ns, snapshot);

  auto increase = [&window](const std::string& name) -> uint64_t {
    const MetricSnapshot* m = FindMetric(window, name);
    return m != nullptr ? m->count : 0;
  };
  report.requests = increase(config_.requests_metric);
  report.shed = increase(config_.shed_metric);
  report.deadline_exceeded = increase(config_.deadline_metric);

  // The window histogram holds only the samples that arrived inside this
  // window, with their exact sum, so an overflow-bucket p99 clamps to the
  // window's own mean.
  const MetricSnapshot* latency = FindMetric(window, config_.latency_metric);
  if (latency != nullptr &&
      latency->kind == MetricSnapshot::Kind::kHistogram) {
    report.latency_count = latency->count;
    report.p99_s = HistogramQuantile(*latency, 0.99);
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
