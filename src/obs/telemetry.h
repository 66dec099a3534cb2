#ifndef DPDP_OBS_TELEMETRY_H_
#define DPDP_OBS_TELEMETRY_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/http_exporter.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace dpdp::obs {

/// One-stop wiring of the live telemetry plane: the time-series sampler,
/// the SLO monitor, and the HTTP exporter, each driven by its own
/// environment knobs and each individually optional. Demos construct one
/// of these from the environment, Start() it before load, Stop() it after
/// — with every knob at its default the whole object is inert (no
/// threads, no socket, no files).
///
///   DPDP_OBS_SAMPLE_MS   > 0 starts the sampler (timeseries.csv/json on
///                        Stop when DPDP_METRICS_DIR is set)
///   DPDP_SLO_*           any objective >= 0 starts the SLO tick thread
///   DPDP_OBS_HTTP_PORT   >= 0 binds the exporter (0 = ephemeral) and
///                        registers /slo + /timeseries next to the
///                        built-in /metrics + /healthz
///
/// The SLO monitor is single-threaded by contract; Telemetry serializes
/// the tick thread and the /slo endpoint behind one mutex.
class Telemetry {
 public:
  struct Options {
    TimeSeriesSampler::Options sampler;
    SloConfig slo;
    /// >= 0 binds that port (0 = ephemeral); < 0 defers to the exporter,
    /// the one reader of DPDP_OBS_HTTP_PORT (unset = disabled).
    int http_port = -1;
  };

  /// All knobs from the environment (see class comment).
  static Options FromEnv();

  explicit Telemetry(Options options);
  ~Telemetry();  ///< Stops everything still running.

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Starts whichever components are enabled. Idempotent.
  void Start();

  /// Stops the SLO tick thread (after one final window evaluation), the
  /// sampler (final sample + timeseries file export), and the exporter.
  /// Idempotent.
  void Stop();

  TimeSeriesSampler& sampler() { return sampler_; }
  HttpExporter& exporter() { return exporter_; }

  /// Thread-safe view of the SLO monitor's JSON (the /slo endpoint body).
  std::string SloJson() const;

  /// Thread-safe SLO totals (tests / demo summaries).
  uint64_t SloWindows() const;
  uint64_t SloBreaches() const;

 private:
  void SloLoop();

  Options options_;
  TimeSeriesSampler sampler_;
  HttpExporter exporter_;

  mutable std::mutex slo_mu_;  ///< Serializes monitor_ ticks and reads.
  SloMonitor monitor_;
  std::condition_variable slo_cv_;
  bool slo_stopping_ = false;
  std::thread slo_thread_;
  bool started_ = false;
};

}  // namespace dpdp::obs

#endif  // DPDP_OBS_TELEMETRY_H_
