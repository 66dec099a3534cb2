#ifndef DPDP_OBS_TELEMETRY_H_
#define DPDP_OBS_TELEMETRY_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

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
///   DPDP_OBS_SAMPLE_MS   > 0 enables the sampler (timeseries.csv/json on
///                        Stop when DPDP_METRICS_DIR is set)
///   DPDP_SLO_*           any objective >= 0 enables the SLO monitor
///   DPDP_OBS_HTTP_PORT   >= 0 binds the exporter (0 = ephemeral) and
///                        registers /slo + /timeseries next to the
///                        built-in /metrics + /healthz
///
/// The sampler and the monitor are thread-free consumers of registry
/// snapshots. Telemetry runs the plane's one thread: it sleeps until the
/// earliest window an enabled consumer has due, takes one registry
/// snapshot and ticks both consumers with it. One mutex serializes the
/// ticks and the /slo and /timeseries endpoints.
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

  /// Starts the exporter and, when a consumer is enabled, takes the first
  /// tick (the sampler's baseline row, the SLO anchor) and launches the
  /// thread. Idempotent.
  void Start();

  /// Joins the thread, takes a final row and a final SLO window, writes
  /// the timeseries files, and stops the exporter. Idempotent.
  void Stop();

  HttpExporter& exporter() { return exporter_; }

  /// Thread-safe SLO totals and sampled rows (tests / demo summaries).
  uint64_t SloWindows() const;
  uint64_t SloBreaches() const;
  std::vector<TimeSeriesRow> SampleRows() const;

 private:
  /// One snapshot handed to both consumers. Caller holds mu_.
  void TickLocked(int64_t now_ns);
  void Loop();

  mutable std::mutex mu_;
  TimeSeriesSampler sampler_;  ///< Guarded by mu_.
  SloMonitor monitor_;         ///< Guarded by mu_.
  bool stopping_ = false;      ///< Guarded by mu_.
  std::condition_variable cv_;
  HttpExporter exporter_;  ///< Its /slo and /timeseries handlers lock mu_.
  std::thread thread_;
  bool started_ = false;
};

}  // namespace dpdp::obs

#endif  // DPDP_OBS_TELEMETRY_H_
