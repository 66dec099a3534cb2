#ifndef DPDP_OBS_METRICS_H_
#define DPDP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace dpdp::obs {

/// Number of cache-line-padded shards per metric. Increments hash the
/// calling thread onto a shard, so ThreadPool workers hammering the same
/// counter never contend on one atomic; reads sum the shards.
inline constexpr int kMetricShards = 16;

namespace internal {

/// One cache line per shard so concurrent writers never false-share.
struct alignas(64) CounterShard {
  std::atomic<uint64_t> value{0};
};

/// Relaxed add for atomic<double> (histogram sums): CAS loop instead of
/// C++20 fetch_add to stay portable across libstdc++ versions.
void AtomicAddDouble(std::atomic<double>* target, double delta);

/// Small dense per-thread index used to pick a shard. Stable for the
/// thread's lifetime; different threads may share a shard (correctness
/// never depends on exclusivity, only contention does).
int ThreadShard();

/// The single flush mutex shared by every obs file export (trace flush,
/// metrics snapshot, flight-recorder dump, timeseries write). A crash-path
/// dump racing the atexit trace/metrics flush serializes here instead of
/// interleaving writes.
std::mutex& ExportMutex();

/// WriteFileAtomic (util/file.h) under ExportMutex(): a reader (or a
/// crash) never observes a torn file, and two obs exports never
/// interleave. Callers must NOT hold ExportMutex().
Status WriteFileStaged(const std::string& path, const std::string& contents);

/// The number format of every obs export (CSV, JSON, Prometheus): %.9g.
std::string FormatDouble(double v);

/// `s` with '"' and '\' backslash-escaped, for a JSON string body.
std::string JsonEscape(const char* s);

}  // namespace internal

/// Monotonically increasing event count. Thread-safe; Add is wait-free
/// (one relaxed fetch_add on the caller's shard).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t n = 1) {
    shards_[internal::ThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  internal::CounterShard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (replay size, epsilon, ...).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { internal::AtomicAddDouble(&value_, v); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
/// overflow bucket catches the rest. Records are sharded like Counter, so
/// concurrent Record calls from pool workers do not contend.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);

  void Record(double value);

  uint64_t Count() const;
  double Sum() const;
  /// Per-bucket totals, size bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }
  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    explicit Shard(size_t n) : buckets(n) {}
  };

  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Exponential latency bucket bounds in seconds: 1us, 2us, 5us, 10us, ...
/// up to 10s (decade steps 1-2-5). Shared default for decision/batch/span
/// latency histograms so exported snapshots line up.
const std::vector<double>& LatencyBucketsSeconds();

/// One exported metric in a point-in-time snapshot.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;              ///< Counter total or gauge value.
  uint64_t count = 0;              ///< Histogram sample count or counter total.
  double sum = 0.0;                ///< Histogram sample sum.
  std::vector<double> bounds;      ///< Histogram upper bounds.
  std::vector<uint64_t> buckets;   ///< bounds.size() + 1 entries.
};

/// Thread-safe name -> metric registry. Lookup takes a mutex (do it once,
/// cache the pointer in a static); the returned pointers are stable for
/// the registry's lifetime and their update paths are lock-free.
class MetricsRegistry {
 public:
  /// Process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is used on first creation; later lookups of the same name
  /// return the existing histogram (bounds must match — checked).
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  /// Point-in-time values of every registered metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The entry named `name` in a snapshot sorted by name (the Snapshot()
/// contract), found by binary search; nullptr when absent.
const MetricSnapshot* FindMetric(const std::vector<MetricSnapshot>& snapshot,
                                 const std::string& name);

/// The telemetry plane's one windowed-delta engine: turns the cumulative
/// registry into what happened inside one time window. It holds a period,
/// the last close time and the previous snapshot; like the circuit breaker
/// it owns no clock and no thread, so its consumers (TimeSeriesSampler,
/// SloMonitor) are driven by injected timestamps. Not thread-safe.
class RegistryWindow {
 public:
  explicit RegistryWindow(int64_t period_ns) : period_ns_(period_ns) {}

  /// When the open window may close: the last close plus the period. The
  /// first Close is always due.
  int64_t due_ns() const;
  bool Due(int64_t now_ns) const { return now_ns >= due_ns(); }

  /// Closes the window at `now_ns` on `snapshot` (sorted by name, as
  /// Snapshot() returns it) and returns the window's snapshot: counters
  /// (`count`, and `value` = count), and each histogram's count, sum and
  /// every bucket, become their increase since the previous Close, and a
  /// histogram's `value` becomes the window mean. Gauges pass through.
  /// The first Close, and a metric first seen mid-stream, count from zero.
  std::vector<MetricSnapshot> Close(
      int64_t now_ns, const std::vector<MetricSnapshot>& snapshot);

  /// False until the first Close anchors the window origin.
  bool anchored() const { return anchored_; }
  /// Time of the last Close (0 before the first).
  int64_t last_close_ns() const { return last_close_ns_; }

 private:
  int64_t period_ns_;
  bool anchored_ = false;
  int64_t last_close_ns_ = 0;
  std::vector<MetricSnapshot> previous_;
};

/// Estimates the q-quantile (q in [0, 1]) of a histogram snapshot by
/// linear interpolation inside the bucket holding the target rank. Exact
/// only up to bucket resolution. Edge cases are total: an empty histogram
/// (count 0 — e.g. a cold shard that never served) or a non-histogram
/// snapshot returns 0; q is clamped into [0, 1]; p0 is the lower edge of
/// the first non-empty bucket and p100 the upper edge of the last
/// non-empty one; a boundless histogram (only the overflow bucket) returns
/// the sample mean; a rank landing in the overflow bucket clamps to the
/// last bound, or to the mean when the mean exceeds it. This is how the
/// serving layer turns its latency histograms into reported p50/p95/p99.
double HistogramQuantile(const MetricSnapshot& snapshot, double q);

/// Serializes a snapshot. CSV columns: name,kind,value,count,sum,buckets
/// (buckets as "le<bound>:<count>" pairs joined by ';'). JSON is a single
/// object keyed by metric name.
std::string SnapshotToCsv(const std::vector<MetricSnapshot>& snapshot);
std::string SnapshotToJson(const std::vector<MetricSnapshot>& snapshot);

/// Writes metrics_snapshot.csv + metrics_snapshot.json for the global
/// registry under `dir` (created if missing). Empty `dir` falls back to
/// DPDP_METRICS_DIR; if that is unset too, does nothing and returns OK.
Status WriteMetricsFiles(const std::string& dir = "");

}  // namespace dpdp::obs

#endif  // DPDP_OBS_METRICS_H_
