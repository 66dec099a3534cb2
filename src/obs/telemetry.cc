#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>

#include "util/env.h"
#include "util/timer.h"

namespace dpdp::obs {

Telemetry::Options Telemetry::FromEnv() {
  Options options;
  options.sampler = TimeSeriesSampler::FromEnv();
  options.slo = SloConfigFromEnv();
  return options;
}

Telemetry::Telemetry(Options options)
    : options_(options),
      sampler_(options.sampler),
      exporter_(options.http_port),
      monitor_(options.slo) {
  exporter_.AddEndpoint("/slo", [this] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = SloJson();
    return response;
  });
  exporter_.AddEndpoint("/timeseries", [this] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = sampler_.ToJson();
    return response;
  });
}

Telemetry::~Telemetry() { Stop(); }

void Telemetry::Start() {
  if (started_) return;
  started_ = true;
  sampler_.Start();          // No-op when sample_interval_ms <= 0.
  (void)exporter_.Start();   // No-op when http_port < 0.
  if (monitor_.enabled()) {
    {
      std::lock_guard<std::mutex> lock(slo_mu_);
      slo_stopping_ = false;
      monitor_.TickAt(MonotonicNanos());  // Anchor the first window.
    }
    slo_thread_ = std::thread(&Telemetry::SloLoop, this);
  }
}

void Telemetry::Stop() {
  if (!started_) return;
  started_ = false;
  if (slo_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(slo_mu_);
      slo_stopping_ = true;
    }
    slo_cv_.notify_all();
    slo_thread_.join();
    // One final window so the tail of the run is judged too.
    std::lock_guard<std::mutex> lock(slo_mu_);
    (void)monitor_.EvaluateWindowAt(MonotonicNanos());
  }
  sampler_.Stop();
  (void)sampler_.WriteFiles();
  exporter_.Stop();
}

void Telemetry::SloLoop() {
  // Tick at a quarter of the window so boundaries are hit promptly; the
  // monitor itself only evaluates once per elapsed window.
  const int tick_ms = std::max(10, options_.slo.window_ms / 4);
  std::unique_lock<std::mutex> lock(slo_mu_);
  while (!slo_cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                           [this] { return slo_stopping_; })) {
    monitor_.TickAt(MonotonicNanos());
  }
}

std::string Telemetry::SloJson() const {
  std::lock_guard<std::mutex> lock(slo_mu_);
  return monitor_.ToJson();
}

uint64_t Telemetry::SloWindows() const {
  std::lock_guard<std::mutex> lock(slo_mu_);
  return monitor_.windows();
}

uint64_t Telemetry::SloBreaches() const {
  std::lock_guard<std::mutex> lock(slo_mu_);
  return monitor_.breaches();
}

}  // namespace dpdp::obs
