#include "obs/timeseries.h"

#include <sstream>

#include "util/env.h"

namespace dpdp::obs {

using internal::FormatDouble;

TimeSeriesSampler::Options TimeSeriesSampler::FromEnv() {
  Options options;
  options.sample_interval_ms =
      EnvIntStrict("DPDP_OBS_SAMPLE_MS", 0, 0, 3600000);
  options.capacity = EnvIntStrict("DPDP_OBS_SAMPLE_ROWS", 512, 1, 10000000);
  return options;
}

TimeSeriesSampler::TimeSeriesSampler() : TimeSeriesSampler(Options()) {}

TimeSeriesSampler::TimeSeriesSampler(Options options)
    : options_(options),
      window_(static_cast<int64_t>(options.sample_interval_ms) * 1000000) {
  if (options_.capacity < 1) options_.capacity = 1;
}

void TimeSeriesSampler::TickAt(int64_t now_ns,
                               const std::vector<MetricSnapshot>& snapshot) {
  if (enabled() && window_.Due(now_ns)) SampleAt(now_ns, snapshot);
}

void TimeSeriesSampler::SampleAt(
    int64_t now_ns, const std::vector<MetricSnapshot>& snapshot) {
  TimeSeriesRow row;
  row.t_ns = now_ns;
  auto put = [this, &row](const std::string& name, double value) {
    auto [it, inserted] = column_index_.try_emplace(name, columns_.size());
    if (inserted) columns_.push_back(name);
    if (row.values.size() <= it->second) row.values.resize(it->second + 1);
    row.values[it->second] = value;
  };
  for (const MetricSnapshot& m : window_.Close(now_ns, snapshot)) {
    if (m.kind == MetricSnapshot::Kind::kHistogram) {
      put(m.name + ".count", static_cast<double>(m.count));
      put(m.name + ".sum", m.sum);
    } else {
      put(m.name, m.value);
    }
  }
  row.values.resize(columns_.size(), 0.0);
  rows_.push_back(std::move(row));
  while (rows_.size() > static_cast<size_t>(options_.capacity)) {
    rows_.pop_front();
  }
}

std::vector<TimeSeriesRow> TimeSeriesSampler::Rows() const {
  std::vector<TimeSeriesRow> out(rows_.begin(), rows_.end());
  for (TimeSeriesRow& row : out) row.values.resize(columns_.size(), 0.0);
  return out;
}

std::string TimeSeriesSampler::ToCsv() const {
  const std::vector<TimeSeriesRow> rows = Rows();
  std::ostringstream os;
  os << "t_ns";
  for (const std::string& name : columns_) os << "," << name;
  os << "\n";
  for (const TimeSeriesRow& row : rows) {
    os << row.t_ns;
    for (double v : row.values) os << "," << FormatDouble(v);
    os << "\n";
  }
  return os.str();
}

std::string TimeSeriesSampler::ToJson() const {
  const std::vector<TimeSeriesRow> rows = Rows();
  std::ostringstream os;
  os << "{\n  \"columns\": [";
  for (size_t i = 0; i < columns_.size(); ++i) {
    os << (i ? ", " : "") << "\"" << columns_[i] << "\"";
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
