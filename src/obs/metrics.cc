#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "util/env.h"
#include "util/file.h"

namespace dpdp::obs {
namespace internal {

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double expected = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(expected, expected + delta,
                                        std::memory_order_relaxed)) {
  }
}

int ThreadShard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

std::mutex& ExportMutex() {
  static std::mutex* mu = new std::mutex;  // Leaked: atexit-flush safe.
  return *mu;
}

Status WriteFileStaged(const std::string& path, const std::string& contents) {
  std::lock_guard<std::mutex> lock(ExportMutex());
  return WriteFileAtomic(path, contents);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

}  // namespace internal

using internal::FormatDouble;

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  DPDP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  shards_.reserve(kMetricShards);
  for (int i = 0; i < kMetricShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void Histogram::Record(double value) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  Shard& shard = *shards_[internal::ThreadShard()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAddDouble(&shard.sum, value);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const auto& s : shards_) {
    total += s->sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& s : shards_) {
    for (size_t b = 0; b < out.size(); ++b) {
      out[b] += s->buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

const std::vector<double>& LatencyBucketsSeconds() {
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>;
    for (double decade = 1e-6; decade < 10.0; decade *= 10.0) {
      b->push_back(decade);
      b->push_back(2.0 * decade);
      b->push_back(5.0 * decade);
    }
    b->push_back(10.0);
    return b;
  }();
  return *bounds;
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrumented code may run during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->histograms[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(name, bounds);
  } else {
    DPDP_CHECK(slot->bounds() == bounds);
  }
  return slot.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& [name, c] : impl_->counters) {
      MetricSnapshot m;
      m.name = name;
      m.kind = MetricSnapshot::Kind::kCounter;
      m.value = static_cast<double>(c->Value());
      m.count = c->Value();
      out.push_back(std::move(m));
    }
    for (const auto& [name, g] : impl_->gauges) {
      MetricSnapshot m;
      m.name = name;
      m.kind = MetricSnapshot::Kind::kGauge;
      m.value = g->Value();
      out.push_back(std::move(m));
    }
    for (const auto& [name, h] : impl_->histograms) {
      MetricSnapshot m;
      m.name = name;
      m.kind = MetricSnapshot::Kind::kHistogram;
      m.count = h->Count();
      m.sum = h->Sum();
      m.value = m.count > 0 ? m.sum / static_cast<double>(m.count) : 0.0;
      m.bounds = h->bounds();
      m.buckets = h->BucketCounts();
      out.push_back(std::move(m));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

namespace {

const char* KindName(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

const MetricSnapshot* FindMetric(const std::vector<MetricSnapshot>& snapshot,
                                 const std::string& name) {
  const auto it = std::lower_bound(
      snapshot.begin(), snapshot.end(), name,
      [](const MetricSnapshot& m, const std::string& n) { return m.name < n; });
  if (it == snapshot.end() || it->name != name) return nullptr;
  return &*it;
}

int64_t RegistryWindow::due_ns() const {
  return anchored_ ? last_close_ns_ + period_ns_
                   : std::numeric_limits<int64_t>::min();
}

std::vector<MetricSnapshot> RegistryWindow::Close(
    int64_t now_ns, const std::vector<MetricSnapshot>& snapshot) {
  std::vector<MetricSnapshot> window = snapshot;
  for (MetricSnapshot& m : window) {
    if (m.kind == MetricSnapshot::Kind::kGauge) continue;
    const MetricSnapshot* prev = FindMetric(previous_, m.name);
    if (prev != nullptr && prev->kind == m.kind) {
      m.count -= prev->count;
      m.sum -= prev->sum;
      // Same name and kind means the same histogram, and the registry
      // checks that its bounds never change.
      DPDP_CHECK(prev->buckets.size() == m.buckets.size());
      for (size_t b = 0; b < m.buckets.size(); ++b) {
        m.buckets[b] -= prev->buckets[b];
      }
    }
    if (m.kind == MetricSnapshot::Kind::kCounter) {
      m.value = static_cast<double>(m.count);
    } else {
      m.value = m.count > 0 ? m.sum / static_cast<double>(m.count) : 0.0;
    }
  }
  previous_ = snapshot;
  last_close_ns_ = now_ns;
  anchored_ = true;
  return window;
}

double HistogramQuantile(const MetricSnapshot& snapshot, double q) {
  if (snapshot.kind != MetricSnapshot::Kind::kHistogram ||
      snapshot.count == 0 || snapshot.buckets.empty()) {
    return 0.0;
  }
  // A boundless histogram (only the overflow bucket) carries no positional
  // information beyond its running sum, so the mean is the only defensible
  // estimate for any q. Also the clamp target when every sample landed in
  // overflow: the mean is then at least the last bound, where plain
  // clamping would systematically under-report.
  const double mean = snapshot.sum / static_cast<double>(snapshot.count);
  if (snapshot.bounds.empty()) return mean;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // q = 0 lands on the first non-empty bucket's lower edge: empty buckets
  // are skipped below without advancing the cumulative rank, so rank 0
  // resolves to the smallest sample's bucket, not to bucket 0.
  const double target = q * static_cast<double>(snapshot.count);
  double cumulative = 0.0;
  for (size_t i = 0; i < snapshot.buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(snapshot.buckets[i]);
    if (cumulative + in_bucket < target || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= snapshot.bounds.size()) break;  // Overflow: clamp below.
    const double lo = i == 0 ? 0.0 : snapshot.bounds[i - 1];
    const double hi = snapshot.bounds[i];
    const double frac = (target - cumulative) / in_bucket;
    return lo + frac * (hi - lo);
  }
  // The target rank lives in the overflow bucket: clamp to the last bound
  // (never below it — the mean can exceed it when overflow mass is heavy).
  return std::max(snapshot.bounds.back(), mean);
}

std::string SnapshotToCsv(const std::vector<MetricSnapshot>& snapshot) {
  std::ostringstream os;
  os << "name,kind,value,count,sum,buckets\n";
  for (const MetricSnapshot& m : snapshot) {
    os << m.name << "," << KindName(m.kind) << "," << FormatDouble(m.value)
       << "," << m.count << "," << FormatDouble(m.sum) << ",";
    for (size_t b = 0; b < m.buckets.size(); ++b) {
      if (b) os << ";";
      os << "le"
         << (b < m.bounds.size() ? FormatDouble(m.bounds[b])
                                 : std::string("inf"))
         << ":" << m.buckets[b];
    }
    os << "\n";
  }
  return os.str();
}

std::string SnapshotToJson(const std::vector<MetricSnapshot>& snapshot) {
  std::ostringstream os;
  os << "{\n";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const MetricSnapshot& m = snapshot[i];
    os << "  \"" << m.name << "\": {\"kind\": \"" << KindName(m.kind)
       << "\", \"value\": " << FormatDouble(m.value);
    if (m.kind == MetricSnapshot::Kind::kHistogram) {
      os << ", \"count\": " << m.count
         << ", \"sum\": " << FormatDouble(m.sum) << ", \"buckets\": [";
      for (size_t b = 0; b < m.buckets.size(); ++b) {
        if (b) os << ", ";
        os << "{\"le\": "
           << (b < m.bounds.size() ? FormatDouble(m.bounds[b])
                                   : std::string("\"inf\""))
           << ", \"count\": " << m.buckets[b] << "}";
      }
      os << "]";
    }
    os << "}" << (i + 1 < snapshot.size() ? "," : "") << "\n";
  }
  os << "}\n";
  return os.str();
}

Status WriteMetricsFiles(const std::string& dir) {
  std::string target = dir;
  if (target.empty()) target = EnvStr("DPDP_METRICS_DIR", "");
  if (target.empty()) return Status::OK();
  const std::vector<MetricSnapshot> snapshot =
      MetricsRegistry::Global().Snapshot();
  const struct {
    const char* file;
    std::string contents;
  } outputs[] = {
      {"metrics_snapshot.csv", SnapshotToCsv(snapshot)},
      {"metrics_snapshot.json", SnapshotToJson(snapshot)},
  };
  for (const auto& out : outputs) {
    const Status written =
        internal::WriteFileStaged(target + "/" + out.file, out.contents);
    if (!written.ok()) return written;
  }
  return Status::OK();
}

}  // namespace dpdp::obs
