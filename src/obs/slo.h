#ifndef DPDP_OBS_SLO_H_
#define DPDP_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dpdp::obs {

/// Service-level objectives evaluated once per sampling window against the
/// global MetricsRegistry. An objective with a negative bound is disabled.
/// Metric names are configurable so tests can point the monitor at
/// synthetic counters and golden-check the window math.
struct SloConfig {
  /// Evaluation window, >= 1 (checked). Each window is judged good or
  /// breached as a whole (the SRE "bad window" model), so budget math is a
  /// windows ratio.
  int window_ms = 1000;

  /// p99 bound (seconds) on `latency_metric` within the window. < 0 off.
  double p99_latency_s = -1.0;
  /// Max shed fraction: shed / requests within the window. < 0 off.
  double max_shed_rate = -1.0;
  /// Max deadline-exceeded fraction within the window. < 0 off.
  double max_deadline_rate = -1.0;

  /// Error budget: allowed fraction of breached windows. Burn rate 1.0
  /// means the service is breaching exactly as fast as the budget allows;
  /// > 1.0 means the budget is burning down.
  double error_budget = 0.01;

  /// Metric names the objectives read. Defaults match the serving layer.
  std::string latency_metric = "serve.request_latency_s";
  std::string requests_metric = "serve.requests";
  std::string shed_metric = "serve.shed";
  std::string deadline_metric = "serve.deadline_exceeded";
};

/// SloConfig from the environment: DPDP_SLO_WINDOW_MS, DPDP_SLO_P99_S,
/// DPDP_SLO_MAX_SHED_RATE, DPDP_SLO_MAX_DEADLINE_RATE, DPDP_SLO_BUDGET.
/// With none of the bound variables set, every objective stays disabled.
SloConfig SloConfigFromEnv();

/// One evaluated window.
struct SloWindowReport {
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  uint64_t requests = 0;           ///< Window delta of requests_metric.
  uint64_t shed = 0;               ///< Window delta of shed_metric.
  uint64_t deadline_exceeded = 0;  ///< Window delta of deadline_metric.
  uint64_t latency_count = 0;      ///< Latency samples in the window.
  double p99_s = 0.0;              ///< p99 of the window's samples.
  double shed_rate = 0.0;
  double deadline_rate = 0.0;
  bool latency_breach = false;
  bool shed_breach = false;
  bool deadline_breach = false;

  bool breached() const {
    return latency_breach || shed_breach || deadline_breach;
  }
};

/// Config-driven SLO monitor. Clock-injected like the circuit breaker: it
/// owns no clock and no thread — every evaluation is a pure function of
/// the injected timestamps and registry snapshots, so tests drive it with
/// synthetic nanos and golden-check the window math.
///
/// Per evaluated window it takes the window's deltas from its
/// RegistryWindow (counters, and the latency histogram's count, sum and
/// buckets), judges each enabled objective, bumps the slo.* counters
/// (slo.windows, slo.breaches, slo.latency_breaches, slo.shed_breaches,
/// slo.deadline_breaches), and updates the slo.budget_burn gauge:
/// breached_windows / (error_budget * total_windows), i.e. 1.0 = burning
/// exactly at budget. On a good ->
/// breached edge it records a flight-recorder event and triggers
/// FlightRecorderAutoDump("slo_breach") (no-op unless the recorder is
/// armed).
///
/// Not thread-safe: owned and ticked by one thread (the Telemetry
/// thread in the demos, the test body in tests).
class SloMonitor {
 public:
  explicit SloMonitor(const SloConfig& config);

  /// True when at least one objective is enabled. A disabled monitor's
  /// TickAt is a single comparison.
  bool enabled() const { return enabled_; }

  /// When the open window may close (see RegistryWindow::due_ns).
  int64_t due_ns() const { return window_.due_ns(); }

  /// Acts only when enabled and the window is due: the first call only
  /// anchors the window origin (counter history before it is absorbed,
  /// never judged); later calls evaluate the window [last close, now_ns).
  /// A long gap collapses into one window ending at `now_ns`.
  void TickAt(int64_t now_ns, const std::vector<MetricSnapshot>& snapshot);

  /// Evaluates the window [last close, now_ns) against `snapshot` right
  /// now, whether or not it is due (test hook; also TickAt's body).
  SloWindowReport EvaluateWindowAt(
      int64_t now_ns, const std::vector<MetricSnapshot>& snapshot);

  /// Most recent windows, oldest first (bounded ring of 128).
  std::vector<SloWindowReport> History() const;

  uint64_t windows() const { return windows_; }
  uint64_t breaches() const { return breached_windows_; }
  /// breached / (budget * total) — see class comment. 0 until a window
  /// has been evaluated.
  double BudgetBurn() const;

  /// JSON for the /slo endpoint: config, totals, budget burn, and the
  /// recent window reports.
  std::string ToJson() const;

  const SloConfig& config() const { return config_; }

 private:
  const SloConfig config_;
  const bool enabled_;
  RegistryWindow window_;
  bool was_breached_ = false;  ///< Previous window state, for edge dumps.
  uint64_t windows_ = 0;
  uint64_t breached_windows_ = 0;

  std::deque<SloWindowReport> history_;

  /// slo.* registry handles (null until first evaluation).
  Counter* windows_counter_ = nullptr;
  Counter* breaches_counter_ = nullptr;
  Counter* latency_breaches_ = nullptr;
  Counter* shed_breaches_ = nullptr;
  Counter* deadline_breaches_ = nullptr;
  Gauge* budget_burn_gauge_ = nullptr;
};

}  // namespace dpdp::obs

#endif  // DPDP_OBS_SLO_H_
