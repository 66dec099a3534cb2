#include "obs/timeseries.h"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/timer.h"

namespace dpdp::obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

TimeSeriesSampler::Options TimeSeriesSampler::FromEnv() {
  Options options;
  options.sample_interval_ms =
      EnvIntStrict("DPDP_OBS_SAMPLE_MS", 0, 0, 3600000);
  options.capacity = EnvIntStrict("DPDP_OBS_SAMPLE_ROWS", 512, 1, 10000000);
  return options;
}

TimeSeriesSampler::TimeSeriesSampler() : TimeSeriesSampler(Options()) {}

TimeSeriesSampler::TimeSeriesSampler(Options options)
    : options_(options) {
  if (options_.capacity < 1) options_.capacity = 1;
}

TimeSeriesSampler::~TimeSeriesSampler() { Stop(); }

void TimeSeriesSampler::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_ || options_.sample_interval_ms <= 0) return;
    running_ = true;
    stopping_ = false;
  }
  SampleOnce();  // Short runs still export at least one row.
  thread_ = std::thread(&TimeSeriesSampler::ThreadBody, this);
}

void TimeSeriesSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  SampleOnce();  // Capture the tail of the run.
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void TimeSeriesSampler::ThreadBody() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto period = std::chrono::milliseconds(options_.sample_interval_ms);
  while (!cv_.wait_for(lock, period, [this] { return stopping_; })) {
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

void TimeSeriesSampler::SampleOnce() {
  // Snapshot outside the row mutex: the registry walk takes its own lock
  // and can be slow with many shards; rows only need the computed deltas.
  const std::vector<MetricSnapshot> snapshot =
      MetricsRegistry::Global().Snapshot();
  TimeSeriesRow row;
  row.t_ns = MonotonicNanos();

  std::lock_guard<std::mutex> lock(mu_);
  auto column = [this](const std::string& name) -> size_t {
    auto [it, inserted] = column_index_.try_emplace(name, columns_.size());
    if (inserted) columns_.push_back(name);
    return it->second;
  };
  auto put = [&row](size_t index, double value) {
    if (row.values.size() <= index) row.values.resize(index + 1, 0.0);
    row.values[index] = value;
  };
  auto delta = [this](const std::string& name, double absolute) {
    auto [it, inserted] = prev_.try_emplace(name, 0.0);
    const double d = absolute - it->second;
    it->second = absolute;
    return d;
  };
  for (const MetricSnapshot& m : snapshot) {
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        put(column(m.name), delta(m.name, m.value));
        break;
      case MetricSnapshot::Kind::kGauge:
        put(column(m.name), m.value);
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const std::string count_col = m.name + ".count";
        const std::string sum_col = m.name + ".sum";
        put(column(count_col),
            delta(count_col, static_cast<double>(m.count)));
        put(column(sum_col), delta(sum_col, m.sum));
        break;
      }
    }
  }
  row.values.resize(columns_.size(), 0.0);
  rows_.push_back(std::move(row));
  while (rows_.size() > static_cast<size_t>(options_.capacity)) {
    rows_.pop_front();
  }
}

std::vector<std::string> TimeSeriesSampler::ColumnNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return columns_;
}

std::vector<TimeSeriesRow> TimeSeriesSampler::Rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TimeSeriesRow> out(rows_.begin(), rows_.end());
  for (TimeSeriesRow& row : out) row.values.resize(columns_.size(), 0.0);
  return out;
}

size_t TimeSeriesSampler::RowCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

std::string TimeSeriesSampler::ToCsv() const {
  const std::vector<std::string> columns = ColumnNames();
  const std::vector<TimeSeriesRow> rows = Rows();
  std::ostringstream os;
  os << "t_ns";
  for (const std::string& name : columns) os << "," << name;
  os << "\n";
  for (const TimeSeriesRow& row : rows) {
    os << row.t_ns;
    for (double v : row.values) os << "," << FormatDouble(v);
    os << "\n";
  }
  return os.str();
}

std::string TimeSeriesSampler::ToJson() const {
  const std::vector<std::string> columns = ColumnNames();
  const std::vector<TimeSeriesRow> rows = Rows();
  std::ostringstream os;
  os << "{\n  \"columns\": [";
  for (size_t i = 0; i < columns.size(); ++i) {
    os << (i ? ", " : "") << "\"" << columns[i] << "\"";
  }
  os << "],\n  \"rows\": [";
  for (size_t r = 0; r < rows.size(); ++r) {
    os << (r ? "," : "") << "\n    {\"t_ns\": " << rows[r].t_ns
       << ", \"values\": [";
    for (size_t i = 0; i < rows[r].values.size(); ++i) {
      os << (i ? ", " : "") << FormatDouble(rows[r].values[i]);
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Status TimeSeriesSampler::WriteFiles(const std::string& dir) const {
  std::string target = dir;
  if (target.empty()) target = EnvStr("DPDP_METRICS_DIR", "");
  if (target.empty()) return Status::OK();
  Status written =
      internal::WriteFileStaged(target + "/timeseries.csv", ToCsv());
  if (!written.ok()) return written;
  return internal::WriteFileStaged(target + "/timeseries.json", ToJson());
}

}  // namespace dpdp::obs
