#ifndef DPDP_OBS_TIMESERIES_H_
#define DPDP_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace dpdp::obs {

/// One sampled row: a timestamp plus one value per column, parallel to
/// TimeSeriesSampler::ColumnNames(). Rows sampled before a column first
/// appeared are padded with 0 at export.
struct TimeSeriesRow {
  int64_t t_ns = 0;
  std::vector<double> values;
};

/// Sampler turning the cumulative MetricsRegistry into a bounded time
/// series: once per sampling period it closes its RegistryWindow on a
/// registry snapshot and appends one DELTA row to a fixed-size ring (oldest
/// rows evicted), so memory is constant no matter how long the process
/// runs.
///
/// Column semantics per metric kind:
///   counter    -> one column  `<name>`        = increase since last row
///   gauge      -> one column  `<name>`        = instantaneous value
///   histogram  -> two columns `<name>.count`  = new samples since last row
///                             `<name>.sum`    = their summed value
///
/// Deltas (not running totals) are what plots want: a column IS the rate
/// numerator for its sampling window. Columns appear when their metric is
/// first seen and keep their position afterwards.
///
/// Clock-injected with no thread, like SloMonitor: the Telemetry thread
/// ticks it with timestamps and snapshots, tests tick it with synthetic
/// ones. Not thread-safe (Telemetry serializes every call).
class TimeSeriesSampler {
 public:
  struct Options {
    /// Sampling period. <= 0 disables TickAt (SampleAt still works).
    /// Initialized from DPDP_OBS_SAMPLE_MS by FromEnv.
    int sample_interval_ms = 250;
    /// Ring capacity in rows. 512 rows at 250 ms ≈ the last 2 minutes.
    int capacity = 512;
  };

  /// Options from the environment: DPDP_OBS_SAMPLE_MS (default 0 =
  /// sampling off — telemetry knobs all default off) and
  /// DPDP_OBS_SAMPLE_ROWS (default 512).
  static Options FromEnv();

  TimeSeriesSampler();  ///< Default options.
  explicit TimeSeriesSampler(Options options);

  /// True when sample_interval_ms > 0.
  bool enabled() const { return options_.sample_interval_ms > 0; }

  /// When the next row is due (see RegistryWindow::due_ns).
  int64_t due_ns() const { return window_.due_ns(); }

  /// Appends a row when enabled and the period is due. The first row is
  /// the baseline: every counter's total so far.
  void TickAt(int64_t now_ns, const std::vector<MetricSnapshot>& snapshot);

  /// Appends one row stamped `now_ns` right now, whether or not it is due
  /// (test hook; also TickAt's body).
  void SampleAt(int64_t now_ns, const std::vector<MetricSnapshot>& snapshot);

  /// Column names in stable first-seen order.
  const std::vector<std::string>& ColumnNames() const { return columns_; }

  /// Rows oldest-first, each padded to ColumnNames().size().
  std::vector<TimeSeriesRow> Rows() const;

  size_t RowCount() const { return rows_.size(); }

  /// CSV: header `t_ns,<col>,...`; one line per row, deltas as %.9g.
  std::string ToCsv() const;

  /// JSON: {"columns": [...], "rows": [{"t_ns": N, "values": [...]}, ...]}.
  std::string ToJson() const;

  /// Writes timeseries.csv + timeseries.json under `dir` (empty: falls
  /// back to DPDP_METRICS_DIR; unset too -> no-op OK) through the shared
  /// obs flush mutex with .tmp-then-rename staging.
  Status WriteFiles(const std::string& dir = "") const;

 private:
  Options options_;
  RegistryWindow window_;
  std::vector<std::string> columns_;
  std::unordered_map<std::string, size_t> column_index_;
  std::deque<TimeSeriesRow> rows_;
};

}  // namespace dpdp::obs

#endif  // DPDP_OBS_TIMESERIES_H_
