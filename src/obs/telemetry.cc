#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/timer.h"

namespace dpdp::obs {

Telemetry::Options Telemetry::FromEnv() {
  Options options;
  options.sampler = TimeSeriesSampler::FromEnv();
  options.slo = SloConfigFromEnv();
  return options;
}

Telemetry::Telemetry(Options options)
    : sampler_(options.sampler),
      monitor_(options.slo),
      exporter_(options.http_port) {
  exporter_.AddEndpoint("/slo", [this] {
    HttpResponse response;
    response.content_type = "application/json";
    std::lock_guard<std::mutex> lock(mu_);
    response.body = monitor_.ToJson();
    return response;
  });
  exporter_.AddEndpoint("/timeseries", [this] {
    HttpResponse response;
    response.content_type = "application/json";
    std::lock_guard<std::mutex> lock(mu_);
    response.body = sampler_.ToJson();
    return response;
  });
}

Telemetry::~Telemetry() { Stop(); }

void Telemetry::Start() {
  if (started_) return;
  started_ = true;
  (void)exporter_.Start();  // No-op when http_port < 0.
  if (!sampler_.enabled() && !monitor_.enabled()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
    TickLocked(MonotonicNanos());
  }
  thread_ = std::thread(&Telemetry::Loop, this);
}

void Telemetry::Stop() {
  if (!started_) return;
  started_ = false;
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sampler_.enabled() || monitor_.enabled()) {
      // A final row and a final window, so the tail of the run is kept
      // and judged too.
      const int64_t now_ns = MonotonicNanos();
      const std::vector<MetricSnapshot> snapshot =
          MetricsRegistry::Global().Snapshot();
      if (sampler_.enabled()) {
        sampler_.SampleAt(now_ns, snapshot);
        // Only a sampled run has a time series to write.
        (void)sampler_.WriteFiles();
      }
      if (monitor_.enabled()) {
        (void)monitor_.EvaluateWindowAt(now_ns, snapshot);
      }
    }
  }
  exporter_.Stop();
}

void Telemetry::TickLocked(int64_t now_ns) {
  const std::vector<MetricSnapshot> snapshot =
      MetricsRegistry::Global().Snapshot();
  sampler_.TickAt(now_ns, snapshot);
  monitor_.TickAt(now_ns, snapshot);
}

void Telemetry::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    int64_t due_ns = std::numeric_limits<int64_t>::max();
    if (sampler_.enabled()) due_ns = std::min(due_ns, sampler_.due_ns());
    if (monitor_.enabled()) due_ns = std::min(due_ns, monitor_.due_ns());
    const std::chrono::steady_clock::time_point due{
        std::chrono::nanoseconds(due_ns)};
    if (cv_.wait_until(lock, due, [this] { return stopping_; })) return;
    TickLocked(MonotonicNanos());
  }
}

uint64_t Telemetry::SloWindows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return monitor_.windows();
}

uint64_t Telemetry::SloBreaches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return monitor_.breaches();
}

std::vector<TimeSeriesRow> Telemetry::SampleRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampler_.Rows();
}

}  // namespace dpdp::obs
