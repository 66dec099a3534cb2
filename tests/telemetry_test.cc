// Telemetry-plane suite: Prometheus name sanitization and exposition
// rendering (shard-label extraction, cumulative histogram series), the
// HTTP exporter's request parsing and live-socket behavior (partial
// reads, 404/405, concurrent scrapes — runs under TSan in CI), the
// RegistryWindow delta engine, SLO window math goldens against synthetic
// registry counters, the time-series sampler's delta semantics and ring
// bound, each consumer's due-window cadence on a synthetic clock, the
// Telemetry thread (endpoints read while it ticks), flight-recorder
// recording/dumping (including the auto-dump a dead shard triggers),
// request-hop trace linkage, and the staged (.tmp-then-rename) export
// path shared by every obs file flush.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "rl/config.h"
#include "serve/chaos.h"
#include "serve/dispatch_service.h"
#include "serve/model_server.h"
#include "serve/shard_router.h"
#include "serve/shard_supervisor.h"
#include "test_util.h"
#include "util/timer.h"

namespace dpdp::obs {
namespace {

namespace fs = std::filesystem;
using dpdp::serve::ChaosAction;
using dpdp::serve::ChaosConfig;
using dpdp::serve::ChaosPolicy;
using dpdp::serve::ModelServer;
using dpdp::serve::ServeReply;
using dpdp::serve::ShardedServeConfig;
using dpdp::serve::ShardRouter;
using dpdp::serve::ShardSupervisor;
using dpdp::serve::SupervisorConfig;
using dpdp::testing::MakeOrder;
using dpdp::testing::MakeTestInstance;

/// Unique scratch directory under the system temp dir.
fs::path MakeScratchDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dpdp_telemetry_test_" + tag + "_" +
       std::to_string(static_cast<uint64_t>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// True when `dir` contains no leftover "*.tmp" staging file — every
/// staged export must rename its temp file away before returning.
bool NoTmpLeft(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return false;
  }
  return true;
}

/// Polls `predicate` every millisecond until it holds or `timeout` ends.
template <typename Predicate>
bool WaitFor(Predicate predicate, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The global registry right now.
std::vector<MetricSnapshot> GlobalSnapshot() {
  return MetricsRegistry::Global().Snapshot();
}

/// A synthetic snapshot entry (counters/gauges).
MetricSnapshot MakeScalar(const std::string& name, MetricSnapshot::Kind kind,
                          double value) {
  MetricSnapshot m;
  m.name = name;
  m.kind = kind;
  m.value = value;
  return m;
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(SanitizeMetricNameTest, RewritesIllegalCharacters) {
  EXPECT_EQ(SanitizeMetricName("serve.queue_wait_s"), "serve_queue_wait_s");
  EXPECT_EQ(SanitizeMetricName("rl:step"), "rl:step");  // ':' is legal.
  EXPECT_EQ(SanitizeMetricName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(SanitizeMetricName("already_legal_123"), "already_legal_123");
  EXPECT_EQ(SanitizeMetricName(""), "");
}

TEST(SanitizeMetricNameTest, LeadingDigitGetsPrefixed) {
  EXPECT_EQ(SanitizeMetricName("99th.latency"), "_99th_latency");
  EXPECT_EQ(SanitizeMetricName("0"), "_0");
}

TEST(PrometheusTest, CountersAndGaugesRenderWithTypeHeaders) {
  std::vector<MetricSnapshot> snapshot;
  snapshot.push_back(
      MakeScalar("train.steps", MetricSnapshot::Kind::kCounter, 42.0));
  snapshot.push_back(
      MakeScalar("train.epsilon", MetricSnapshot::Kind::kGauge, 0.125));
  const std::string text = PrometheusFromSnapshot(snapshot);
  EXPECT_NE(text.find("# TYPE train_steps counter\n"), std::string::npos);
  EXPECT_NE(text.find("train_steps 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE train_epsilon gauge\n"), std::string::npos);
  EXPECT_NE(text.find("train_epsilon 0.125\n"), std::string::npos);
}

TEST(PrometheusTest, ShardSeriesCollapseIntoLabeledFamily) {
  // Aggregate + two shard series, deliberately given out of shard order —
  // the family must carry ONE type header with the unlabeled aggregate
  // first (shard -1 sorts lowest) and the shard series sorted by index.
  std::vector<MetricSnapshot> snapshot;
  snapshot.push_back(
      MakeScalar("serve.shard1.requests", MetricSnapshot::Kind::kCounter, 7));
  snapshot.push_back(
      MakeScalar("serve.requests", MetricSnapshot::Kind::kCounter, 10));
  snapshot.push_back(
      MakeScalar("serve.shard0.requests", MetricSnapshot::Kind::kCounter, 3));
  const std::string text = PrometheusFromSnapshot(snapshot);

  const size_t type_at = text.find("# TYPE serve_requests counter\n");
  ASSERT_NE(type_at, std::string::npos);
  EXPECT_EQ(text.find("# TYPE serve_requests counter", type_at + 1),
            std::string::npos)
      << "family header must be emitted exactly once:\n"
      << text;
  const size_t aggregate_at = text.find("serve_requests 10\n");
  const size_t shard0_at = text.find("serve_requests{shard=\"0\"} 3\n");
  const size_t shard1_at = text.find("serve_requests{shard=\"1\"} 7\n");
  ASSERT_NE(aggregate_at, std::string::npos) << text;
  ASSERT_NE(shard0_at, std::string::npos) << text;
  ASSERT_NE(shard1_at, std::string::npos) << text;
  EXPECT_LT(aggregate_at, shard0_at);
  EXPECT_LT(shard0_at, shard1_at);
}

TEST(PrometheusTest, NonShardNamesKeepTheirFullName) {
  // ".shard" without digits, or digits not followed by '.', is NOT a
  // shard label — the name passes through whole.
  std::vector<MetricSnapshot> snapshot;
  snapshot.push_back(
      MakeScalar("serve.shards", MetricSnapshot::Kind::kGauge, 8));
  snapshot.push_back(
      MakeScalar("serve.shardX.requests", MetricSnapshot::Kind::kCounter, 1));
  const std::string text = PrometheusFromSnapshot(snapshot);
  EXPECT_NE(text.find("serve_shards 8\n"), std::string::npos);
  EXPECT_NE(text.find("serve_shardX_requests 1\n"), std::string::npos);
  EXPECT_EQ(text.find("{shard="), std::string::npos);
}

TEST(PrometheusTest, HistogramRendersCumulativeBuckets) {
  MetricSnapshot m;
  m.name = "serve.batch_latency_s";
  m.kind = MetricSnapshot::Kind::kHistogram;
  m.bounds = {0.001, 0.01, 0.1};
  m.buckets = {5, 3, 0, 2};  // Last = overflow.
  m.count = 10;
  m.sum = 0.75;
  const std::string text = PrometheusFromSnapshot({m});
  EXPECT_NE(text.find("# TYPE serve_batch_latency_s histogram\n"),
            std::string::npos);
  // Buckets are CUMULATIVE in the exposition format.
  EXPECT_NE(text.find("serve_batch_latency_s_bucket{le=\"0.001\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_batch_latency_s_bucket{le=\"0.01\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_batch_latency_s_bucket{le=\"0.1\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_batch_latency_s_bucket{le=\"+Inf\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_batch_latency_s_sum 0.75\n"), std::string::npos);
  EXPECT_NE(text.find("serve_batch_latency_s_count 10\n"), std::string::npos);
}

TEST(PrometheusTest, GlobalRegistrySnapshotParsesAsExposition) {
  // Render the real global registry (whatever this process accumulated so
  // far) and structurally validate every line: a '#' comment or a
  // "<name>[{labels}] <number>" sample whose family was declared by a
  // preceding # TYPE line.
  MetricsRegistry::Global().GetCounter("tmtest.prom.live")->Add(3);
  const std::string text =
      PrometheusFromSnapshot(MetricsRegistry::Global().Snapshot());
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  bool saw_live = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(name.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value in: " << line;
    if (name == "tmtest_prom_live") saw_live = true;
  }
  EXPECT_TRUE(saw_live);
}

// ---------------------------------------------------------------------------
// HTTP exporter
// ---------------------------------------------------------------------------

TEST(HttpParseTest, AcceptsWellFormedGet) {
  std::string path;
  EXPECT_EQ(HttpExporter::ParseRequestPath(
                "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", &path),
            0);
  EXPECT_EQ(path, "/metrics");
}

TEST(HttpParseTest, RejectsMalformedAndNonGet) {
  std::string path;
  EXPECT_EQ(HttpExporter::ParseRequestPath("", &path), 400);
  EXPECT_EQ(HttpExporter::ParseRequestPath("GARBAGE\r\n\r\n", &path), 400);
  EXPECT_EQ(HttpExporter::ParseRequestPath("GET \r\n\r\n", &path), 400);
  EXPECT_EQ(
      HttpExporter::ParseRequestPath("GET metrics HTTP/1.1\r\n\r\n", &path),
      400);
  EXPECT_EQ(
      HttpExporter::ParseRequestPath("POST /metrics HTTP/1.1\r\n\r\n", &path),
      405);
  EXPECT_EQ(
      HttpExporter::ParseRequestPath("DELETE / HTTP/1.1\r\n\r\n", &path), 405);
}

TEST(HttpExporterTest, HandlePathDispatchesBuiltinsAndCustoms) {
  HttpExporter exporter(0);  // Never started: HandlePath needs no socket.
  EXPECT_EQ(exporter.HandlePath("/healthz").status, 200);
  EXPECT_EQ(exporter.HandlePath("/healthz").body, "ok\n");
  EXPECT_EQ(exporter.HandlePath("/healthz?verbose=1").body, "ok\n")
      << "query strings must be stripped before lookup";
  EXPECT_EQ(exporter.HandlePath("/nope").status, 404);

  MetricsRegistry::Global().GetCounter("tmtest.http.dispatch")->Add(9);
  const HttpResponse metrics = exporter.HandlePath("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("tmtest_http_dispatch 9"), std::string::npos);

  exporter.AddEndpoint("/custom", [] {
    HttpResponse r;
    r.body = "v1";
    return r;
  });
  EXPECT_EQ(exporter.HandlePath("/custom").body, "v1");
  exporter.AddEndpoint("/custom", [] {  // Replacement wins.
    HttpResponse r;
    r.body = "v2";
    return r;
  });
  EXPECT_EQ(exporter.HandlePath("/custom").body, "v2");
}

TEST(HttpExporterTest, DisabledExporterStartIsANoop) {
  ASSERT_EQ(::getenv("DPDP_OBS_HTTP_PORT"), nullptr);
  HttpExporter exporter;  // Default: DPDP_OBS_HTTP_PORT unset -> disabled.
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(exporter.port(), -1);
  exporter.Stop();  // Idempotent on a never-started exporter.
}

/// Sends `wire` to 127.0.0.1:`port` in `chunks` pieces (a pause between
/// them, so the exporter must survive partial reads) and returns the full
/// response (read to EOF).
std::string RawHttpExchange(int port, const std::string& wire,
                            int chunks = 1) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const size_t stride = (wire.size() + chunks - 1) / chunks;
  for (size_t at = 0; at < wire.size(); at += stride) {
    const size_t n = std::min(stride, wire.size() - at);
    if (::send(fd, wire.data() + at, n, MSG_NOSIGNAL) < 0) break;
    if (at + n < wire.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpExporterTest, ServesMetricsOverALiveSocket) {
  HttpExporter exporter(0);  // Ephemeral port.
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_TRUE(exporter.running());
  const int port = exporter.port();
  ASSERT_GT(port, 0);

  MetricsRegistry::Global().GetCounter("tmtest.http.live")->Add(5);
  const std::string response =
      RawHttpExchange(port, "GET /metrics HTTP/1.1\r\nHost: l\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_NE(response.find("tmtest_http_live 5"), std::string::npos);

  // Headers split over several TCP segments must still parse.
  const std::string split = RawHttpExchange(
      port, "GET /healthz HTTP/1.1\r\nHost: l\r\n\r\n", /*chunks=*/4);
  EXPECT_NE(split.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(split.find("ok\n"), std::string::npos);

  EXPECT_NE(RawHttpExchange(port, "GET /nope HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404 Not Found"),
            std::string::npos);
  EXPECT_NE(RawHttpExchange(port, "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(exporter.port(), -1);
}

TEST(HttpExporterTest, ConcurrentScrapesAllSucceed) {
  HttpExporter exporter(0);
  ASSERT_TRUE(exporter.Start().ok());
  const int port = exporter.port();
  ASSERT_GT(port, 0);
  MetricsRegistry::Global().GetCounter("tmtest.http.concurrent")->Add(1);

  // Several scrapers racing metric writers: the exporter serves each
  // connection in turn (backlog absorbs the burst) and every scrape gets a
  // complete, parseable response. TSan watches the registry reads.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Counter* counter =
        MetricsRegistry::Global().GetCounter("tmtest.http.concurrent");
    while (!stop.load(std::memory_order_relaxed)) counter->Add(1);
  });
  constexpr int kScrapers = 4;
  std::vector<std::future<std::string>> scrapes;
  scrapes.reserve(kScrapers);
  for (int i = 0; i < kScrapers; ++i) {
    scrapes.push_back(std::async(std::launch::async, [port] {
      return RawHttpExchange(port,
                             "GET /metrics HTTP/1.1\r\nHost: c\r\n\r\n");
    }));
  }
  for (std::future<std::string>& f : scrapes) {
    const std::string response = f.get();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("tmtest_http_concurrent"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  exporter.Stop();
}

// ---------------------------------------------------------------------------
// RegistryWindow: the windowed-delta engine
// ---------------------------------------------------------------------------

TEST(RegistryWindowTest, ClosesIntoExactPerWindowDeltas) {
  // A private registry: only this test's metrics, exact binary fractions
  // so every sum compares with ==.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Gauge* gauge = registry.GetGauge("g");
  Histogram* histogram = registry.GetHistogram("h", {1.0, 2.0, 4.0});
  counter->Add(7);
  gauge->Set(2.5);
  histogram->Record(0.5);
  histogram->Record(3.0);
  histogram->Record(8.0);

  RegistryWindow window(10);
  // The first Close counts from zero.
  std::vector<MetricSnapshot> w = window.Close(0, registry.Snapshot());
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(FindMetric(w, "c")->count, 7u);
  EXPECT_EQ(FindMetric(w, "c")->value, 7.0);
  EXPECT_EQ(FindMetric(w, "g")->value, 2.5);
  const MetricSnapshot* h = FindMetric(w, "h");
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 11.5);
  EXPECT_EQ(h->buckets, (std::vector<uint64_t>{1, 0, 1, 1}));

  // Counter and every histogram field become their increase; the gauge
  // passes through; the histogram's value is the window mean.
  counter->Add(5);
  gauge->Set(-1.0);
  histogram->Record(1.5);
  histogram->Record(1.5);
  histogram->Record(16.0);
  w = window.Close(10, registry.Snapshot());
  EXPECT_EQ(FindMetric(w, "c")->count, 5u);
  EXPECT_EQ(FindMetric(w, "c")->value, 5.0);
  EXPECT_EQ(FindMetric(w, "g")->value, -1.0);
  h = FindMetric(w, "h");
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 19.0);
  EXPECT_EQ(h->value, 19.0 / 3.0);
  EXPECT_EQ(h->buckets, (std::vector<uint64_t>{0, 2, 0, 1}));
  EXPECT_EQ(h->bounds, (std::vector<double>{1.0, 2.0, 4.0}));

  // A metric first seen mid-stream counts from zero; an idle window is
  // all zeros (and a zero-count histogram has value 0).
  registry.GetCounter("late")->Add(4);
  w = window.Close(20, registry.Snapshot());
  ASSERT_NE(FindMetric(w, "late"), nullptr);
  EXPECT_EQ(FindMetric(w, "late")->count, 4u);
  EXPECT_EQ(FindMetric(w, "c")->count, 0u);
  h = FindMetric(w, "h");
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->sum, 0.0);
  EXPECT_EQ(h->value, 0.0);
  EXPECT_EQ(h->buckets, (std::vector<uint64_t>{0, 0, 0, 0}));
  EXPECT_EQ(FindMetric(w, "missing"), nullptr);
}

TEST(RegistryWindowTest, DueAtLastClosePlusPeriod) {
  RegistryWindow window(1000);
  EXPECT_FALSE(window.anchored());
  EXPECT_TRUE(window.Due(-5000)) << "the first Close is always due";
  (void)window.Close(100, {});
  EXPECT_TRUE(window.anchored());
  EXPECT_EQ(window.last_close_ns(), 100);
  EXPECT_EQ(window.due_ns(), 1100);
  EXPECT_FALSE(window.Due(1099));
  EXPECT_TRUE(window.Due(1100));
  // A late close moves the next boundary with it.
  (void)window.Close(1500, {});
  EXPECT_EQ(window.due_ns(), 2500);
  EXPECT_FALSE(window.Due(2499));
  EXPECT_TRUE(window.Due(2500));
}

// ---------------------------------------------------------------------------
// SLO monitor: window math goldens
// ---------------------------------------------------------------------------

/// An SloConfig pointed at this test's private synthetic metrics, so the
/// goldens are immune to whatever the rest of the process records.
SloConfig SyntheticSloConfig(const std::string& tag) {
  SloConfig config;
  config.window_ms = 1000;
  config.p99_latency_s = 0.01;
  config.max_shed_rate = 0.1;
  config.max_deadline_rate = 0.5;
  config.error_budget = 0.25;
  config.requests_metric = "tmtest." + tag + ".requests";
  config.shed_metric = "tmtest." + tag + ".shed";
  config.deadline_metric = "tmtest." + tag + ".deadline";
  config.latency_metric = "tmtest." + tag + ".latency_s";
  return config;
}

TEST(SloMonitorTest, AllBoundsNegativeDisablesTheMonitor) {
  SloMonitor monitor(SloConfig{});  // Default bounds are all -1.
  EXPECT_FALSE(monitor.enabled());
  monitor.TickAt(1000000000, GlobalSnapshot());
  monitor.TickAt(5000000000, GlobalSnapshot());
  EXPECT_EQ(monitor.windows(), 0u);
}

TEST(SloMonitorTest, WindowDeltasAndBreachJudgments) {
  const SloConfig config = SyntheticSloConfig("slo1");
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* requests = registry.GetCounter(config.requests_metric);
  Counter* shed = registry.GetCounter(config.shed_metric);
  Counter* deadline = registry.GetCounter(config.deadline_metric);
  Histogram* latency =
      registry.GetHistogram(config.latency_metric, LatencyBucketsSeconds());

  // Pre-monitor history that the anchor must absorb, not count.
  requests->Add(1000);
  shed->Add(500);
  for (int i = 0; i < 50; ++i) latency->Record(5.0);

  SloMonitor monitor(config);
  ASSERT_TRUE(monitor.enabled());
  const int64_t t0 = 1000000000;
  monitor.TickAt(t0, GlobalSnapshot());  // Anchor only: no window evaluated.
  EXPECT_EQ(monitor.windows(), 0u);

  // Window 1 — healthy: 200 requests, 2 sheds (1%), fast latencies.
  requests->Add(200);
  shed->Add(2);
  for (int i = 0; i < 100; ++i) latency->Record(0.004);
  const SloWindowReport w1 =
      monitor.EvaluateWindowAt(t0 + 1000000000, GlobalSnapshot());
  EXPECT_EQ(w1.window_start_ns, t0);
  EXPECT_EQ(w1.window_end_ns, t0 + 1000000000);
  EXPECT_EQ(w1.requests, 200u);
  EXPECT_EQ(w1.shed, 2u);
  EXPECT_EQ(w1.deadline_exceeded, 0u);
  EXPECT_EQ(w1.latency_count, 100u);
  EXPECT_DOUBLE_EQ(w1.shed_rate, 0.01);
  // All 100 samples sit in the le=0.005 bucket, so the window p99 must
  // land inside it — well under the 10 ms objective.
  EXPECT_GT(w1.p99_s, 0.0);
  EXPECT_LE(w1.p99_s, 0.005);
  EXPECT_FALSE(w1.breached());
  EXPECT_EQ(monitor.windows(), 1u);
  EXPECT_EQ(monitor.breaches(), 0u);
  EXPECT_DOUBLE_EQ(monitor.BudgetBurn(), 0.0);

  // Window 2 — latency regression: every sample lands at 200 ms.
  requests->Add(100);
  for (int i = 0; i < 50; ++i) latency->Record(0.2);
  const SloWindowReport w2 =
      monitor.EvaluateWindowAt(t0 + 2000000000, GlobalSnapshot());
  EXPECT_EQ(w2.requests, 100u);
  EXPECT_EQ(w2.latency_count, 50u);
  EXPECT_GT(w2.p99_s, 0.1);
  EXPECT_TRUE(w2.latency_breach);
  EXPECT_FALSE(w2.shed_breach);
  EXPECT_TRUE(w2.breached());

  // Window 3 — shed storm with deadline misses: 30 of 100 requests shed
  // (30% > 10%) and 60 past their deadline (60% > 50%).
  requests->Add(100);
  shed->Add(30);
  deadline->Add(60);
  const SloWindowReport w3 =
      monitor.EvaluateWindowAt(t0 + 3000000000, GlobalSnapshot());
  EXPECT_EQ(w3.shed, 30u);
  EXPECT_EQ(w3.deadline_exceeded, 60u);
  EXPECT_DOUBLE_EQ(w3.shed_rate, 0.3);
  EXPECT_DOUBLE_EQ(w3.deadline_rate, 0.6);
  EXPECT_TRUE(w3.shed_breach);
  EXPECT_TRUE(w3.deadline_breach);
  EXPECT_FALSE(w3.latency_breach) << "no latency samples in this window";
  EXPECT_EQ(w3.latency_count, 0u);

  // Budget burn: 2 of 3 windows breached against a 25% budget ->
  // (2/3) / 0.25 = 8/3, burning well past the budget line.
  EXPECT_EQ(monitor.windows(), 3u);
  EXPECT_EQ(monitor.breaches(), 2u);
  EXPECT_NEAR(monitor.BudgetBurn(), (2.0 / 3.0) / 0.25, 1e-12);

  // History keeps the reports in order; ToJson reflects the totals.
  const std::vector<SloWindowReport> history = monitor.History();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].requests, 200u);
  EXPECT_EQ(history[2].shed, 30u);
  const std::string json = monitor.ToJson();
  EXPECT_NE(json.find("\"windows\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"breached_windows\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"breached\": true"), std::string::npos);
}

TEST(SloMonitorTest, TickAtEvaluatesOncePerElapsedWindow) {
  SloConfig config = SyntheticSloConfig("slo2");
  config.p99_latency_s = 1.0;  // Wide-open bounds: only windows() matters.
  config.max_shed_rate = 1.0;
  config.max_deadline_rate = 1.0;
  SloMonitor monitor(config);
  const int64_t t0 = 5000000000;
  monitor.TickAt(t0, GlobalSnapshot());
  EXPECT_EQ(monitor.windows(), 0u);  // Anchor.
  monitor.TickAt(t0 + 400000000, GlobalSnapshot());  // Inside the window.
  EXPECT_EQ(monitor.windows(), 0u);
  monitor.TickAt(t0 + 1100000000, GlobalSnapshot());  // One window elapsed.
  EXPECT_EQ(monitor.windows(), 1u);
  EXPECT_EQ(monitor.due_ns(), t0 + 2100000000);
  monitor.TickAt(t0 + 1200000000, GlobalSnapshot());  // 0.1 s since.
  EXPECT_EQ(monitor.windows(), 1u);
  // A long gap collapses into ONE window ending now — the monitor never
  // back-fills a phantom breach-free streak.
  monitor.TickAt(t0 + 60000000000, GlobalSnapshot());
  EXPECT_EQ(monitor.windows(), 2u);
}

TEST(SloMonitorTest, EvaluatesOnlyWhenItsWindowIsDue) {
  SloConfig config = SyntheticSloConfig("slo_due");
  config.window_ms = 10;
  config.p99_latency_s = 1.0;  // Wide-open bounds: only windows() matters.
  config.max_shed_rate = 1.0;
  config.max_deadline_rate = 1.0;
  SloMonitor monitor(config);
  const int64_t ms = 1000000;
  monitor.TickAt(0, GlobalSnapshot());  // Anchor.
  for (int64_t t = 5 * ms; t <= 100 * ms; t += 5 * ms) {
    monitor.TickAt(t, GlobalSnapshot());
  }
  EXPECT_EQ(monitor.windows(), 10u);
  const std::vector<SloWindowReport> history = monitor.History();
  ASSERT_EQ(history.size(), 10u);
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].window_start_ns, static_cast<int64_t>(i) * 10 * ms);
    EXPECT_EQ(history[i].window_end_ns,
              static_cast<int64_t>(i + 1) * 10 * ms);
  }
}

TEST(SloMonitorTest, OverflowWindowP99UsesTheWindowsOwnSamples) {
  // 1000 fast samples before the anchor, then 10 samples of 100 s — all
  // past the last (10 s) bucket bound. The window's p99 rank lands in the
  // overflow bucket, which clamps to the mean of the window's own samples
  // (100 s), not of everything the histogram ever recorded.
  SloConfig config = SyntheticSloConfig("slo_overflow");
  config.p99_latency_s = 20.0;
  Histogram* latency = MetricsRegistry::Global().GetHistogram(
      config.latency_metric, LatencyBucketsSeconds());
  for (int i = 0; i < 1000; ++i) latency->Record(0.001);
  SloMonitor monitor(config);
  monitor.TickAt(0, GlobalSnapshot());  // Anchor.
  for (int i = 0; i < 10; ++i) latency->Record(100.0);
  const SloWindowReport w =
      monitor.EvaluateWindowAt(1000000000, GlobalSnapshot());
  EXPECT_EQ(w.latency_count, 10u);
  EXPECT_DOUBLE_EQ(w.p99_s, 100.0);
  EXPECT_TRUE(w.latency_breach);
}

TEST(SloMonitorTest, ZeroWindowIsRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SloConfig config;
  config.window_ms = 0;
  EXPECT_DEATH(SloMonitor monitor(config), "window_ms >= 1");
}

TEST(SloMonitorTest, BreachEdgeTriggersFlightRecorderDump) {
  const fs::path dir = MakeScratchDir("slo_breach");
  ::setenv("DPDP_FLIGHT_RECORDER_FILE",
           (dir / "breach_dump.json").c_str(), 1);
  SetFlightRecorderEnabled(true);
  ResetFlightRecorder();

  SloConfig config = SyntheticSloConfig("slo3");
  Counter* requests =
      MetricsRegistry::Global().GetCounter(config.requests_metric);
  Counter* shed = MetricsRegistry::Global().GetCounter(config.shed_metric);
  SloMonitor monitor(config);
  const int64_t t0 = 7000000000;
  monitor.TickAt(t0, GlobalSnapshot());

  const uint64_t dumps_before = FlightRecorderDumps();
  requests->Add(10);
  shed->Add(9);  // 90% shed rate: massive breach.
  const SloWindowReport w1 =
      monitor.EvaluateWindowAt(t0 + 1000000000, GlobalSnapshot());
  ASSERT_TRUE(w1.shed_breach);
  EXPECT_EQ(FlightRecorderDumps(), dumps_before + 1);

  // Staying breached is the SAME incident: no second dump.
  requests->Add(10);
  shed->Add(9);
  const SloWindowReport w2 =
      monitor.EvaluateWindowAt(t0 + 2000000000, GlobalSnapshot());
  ASSERT_TRUE(w2.shed_breach);
  EXPECT_EQ(FlightRecorderDumps(), dumps_before + 1);

  const std::string dump = ReadFile(dir / "breach_dump.json");
  EXPECT_NE(dump.find("\"reason\": \"slo_breach\""), std::string::npos);
  EXPECT_NE(dump.find("slo.breach"), std::string::npos);
  EXPECT_TRUE(NoTmpLeft(dir));

  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
  ::unsetenv("DPDP_FLIGHT_RECORDER_FILE");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Time-series sampler
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, SampleAtRecordsDeltasPerKind) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("tmtest.ts.counter");
  Gauge* gauge = registry.GetGauge("tmtest.ts.gauge");
  Histogram* histogram =
      registry.GetHistogram("tmtest.ts.hist_s", LatencyBucketsSeconds());
  counter->Add(7);
  gauge->Set(3.5);
  histogram->Record(0.001);

  TimeSeriesSampler sampler;
  sampler.SampleAt(100, GlobalSnapshot());  // Baseline row.
  counter->Add(5);
  gauge->Set(-2.0);
  histogram->Record(0.002);
  histogram->Record(0.004);
  sampler.SampleAt(200, GlobalSnapshot());

  const std::vector<std::string> columns = sampler.ColumnNames();
  auto column = [&columns](const std::string& name) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return static_cast<int>(i);
    }
    ADD_FAILURE() << "missing column " << name;
    return -1;
  };
  const int c_counter = column("tmtest.ts.counter");
  const int c_gauge = column("tmtest.ts.gauge");
  const int c_hcount = column("tmtest.ts.hist_s.count");
  const int c_hsum = column("tmtest.ts.hist_s.sum");
  ASSERT_GE(c_counter, 0);
  ASSERT_GE(c_gauge, 0);
  ASSERT_GE(c_hcount, 0);
  ASSERT_GE(c_hsum, 0);

  const std::vector<TimeSeriesRow> rows = sampler.Rows();
  ASSERT_EQ(rows.size(), 2u);
  const TimeSeriesRow& last = rows.back();
  ASSERT_EQ(last.values.size(), columns.size());
  EXPECT_DOUBLE_EQ(last.values[c_counter], 5.0);   // Delta, not total.
  EXPECT_DOUBLE_EQ(last.values[c_gauge], -2.0);    // Instantaneous.
  EXPECT_DOUBLE_EQ(last.values[c_hcount], 2.0);    // New samples.
  EXPECT_NEAR(last.values[c_hsum], 0.006, 1e-12);  // Their sum.
  EXPECT_EQ(rows.front().t_ns, 100);
  EXPECT_EQ(last.t_ns, 200);
}

TEST(TimeSeriesTest, SamplesOnlyWhenItsPeriodIsDue) {
  TimeSeriesSampler::Options options;
  options.sample_interval_ms = 20;
  TimeSeriesSampler sampler(options);
  const int64_t ms = 1000000;
  for (int64_t t = 0; t <= 100 * ms; t += 5 * ms) {
    sampler.TickAt(t, GlobalSnapshot());
  }
  const std::vector<TimeSeriesRow> rows = sampler.Rows();
  ASSERT_EQ(rows.size(), 6u);  // The baseline at 0, then every 20 ms.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].t_ns, static_cast<int64_t>(i) * 20 * ms);
  }
}

TEST(TimeSeriesTest, RingEvictsOldestRows) {
  TimeSeriesSampler::Options options;
  options.capacity = 4;
  TimeSeriesSampler sampler(options);
  Counter* counter = MetricsRegistry::Global().GetCounter("tmtest.ts.ring");
  for (int i = 0; i < 7; ++i) {
    counter->Add(1);
    sampler.SampleAt(i, GlobalSnapshot());
  }
  EXPECT_EQ(sampler.RowCount(), 4u);
  const std::vector<TimeSeriesRow> rows = sampler.Rows();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].t_ns, rows[i - 1].t_ns);
  }
}

TEST(TimeSeriesTest, CsvAndJsonCarryColumnsAndRows) {
  TimeSeriesSampler sampler;
  MetricsRegistry::Global().GetCounter("tmtest.ts.export")->Add(2);
  sampler.SampleAt(0, GlobalSnapshot());
  const std::string csv = sampler.ToCsv();
  EXPECT_EQ(csv.rfind("t_ns,", 0), 0u) << csv.substr(0, 80);
  EXPECT_NE(csv.find("tmtest.ts.export"), std::string::npos);
  const std::string json = sampler.ToJson();
  EXPECT_NE(json.find("\"columns\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"tmtest.ts.export\""), std::string::npos);
}

TEST(TimeSeriesTest, WriteFilesStagesIntoTargetDir) {
  const fs::path dir = MakeScratchDir("timeseries");
  TimeSeriesSampler sampler;
  sampler.SampleAt(0, GlobalSnapshot());
  ASSERT_TRUE(sampler.WriteFiles(dir.string()).ok());
  EXPECT_TRUE(fs::exists(dir / "timeseries.csv"));
  EXPECT_TRUE(fs::exists(dir / "timeseries.json"));
  EXPECT_TRUE(NoTmpLeft(dir));
  // No dir anywhere: a clean no-op, not an error.
  ASSERT_EQ(::getenv("DPDP_METRICS_DIR"), nullptr);
  EXPECT_TRUE(sampler.WriteFiles().ok());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Telemetry: one thread ticks both consumers
// ---------------------------------------------------------------------------

/// Telemetry options with both consumers on fast periods, pointed at
/// synthetic SLO metrics with wide-open bounds (no breach, no dump).
Telemetry::Options FastTelemetryOptions(const std::string& tag) {
  Telemetry::Options options;
  options.sampler.sample_interval_ms = 2;
  options.slo = SyntheticSloConfig(tag);
  options.slo.window_ms = 3;
  options.slo.p99_latency_s = 1000.0;
  options.slo.max_shed_rate = 1.0;
  options.slo.max_deadline_rate = 1.0;
  return options;
}

/// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(TelemetryTest, StartTakesTheFirstTickAndStopTheLast) {
  Telemetry::Options options = FastTelemetryOptions("tm0");
  options.sampler.sample_interval_ms = 3600000;  // Never due mid-test.
  options.slo.window_ms = 3600000;
  Telemetry telemetry(options);
  telemetry.Start();
  EXPECT_EQ(telemetry.SampleRows().size(), 1u) << "the baseline row";
  EXPECT_EQ(telemetry.SloWindows(), 0u) << "the first tick only anchors";
  telemetry.Stop();
  EXPECT_EQ(telemetry.SampleRows().size(), 2u) << "the final row";
  EXPECT_EQ(telemetry.SloWindows(), 1u) << "the final window";
}

TEST(TelemetryTest, OneThreadTicksBothConsumersAndStopFreezesThem) {
  Telemetry telemetry(FastTelemetryOptions("tm1"));
  const size_t threads_before = ThreadCount();
  telemetry.Start();
  EXPECT_EQ(ThreadCount(), threads_before + 1);
  ASSERT_TRUE(WaitFor(
      [&] {
        return telemetry.SampleRows().size() >= 3 &&
               telemetry.SloWindows() >= 2;
      },
      std::chrono::seconds(30)))
      << "the thread never ticked the consumers";
  telemetry.Stop();
  // A joined thread leaves /proc/self/task a moment after join returns.
  EXPECT_TRUE(WaitFor([&] { return ThreadCount() == threads_before; },
                      std::chrono::seconds(30)));
  const std::vector<TimeSeriesRow> rows = telemetry.SampleRows();
  const uint64_t windows = telemetry.SloWindows();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].t_ns, rows[i - 1].t_ns);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_EQ(telemetry.SampleRows().size(), rows.size()) << "kept sampling";
  EXPECT_EQ(telemetry.SloWindows(), windows) << "kept evaluating";
}

TEST(TelemetryTest, EndpointsReadTheConsumersWhileTheThreadTicks) {
  // Never bound (no port): HandlePath calls the same handlers a scrape
  // would, racing the telemetry thread — the TSan case.
  Telemetry telemetry(FastTelemetryOptions("tm2"));
  telemetry.Start();
  std::thread scraper([&telemetry] {
    for (int i = 0; i < 50; ++i) {
      const HttpResponse slo = telemetry.exporter().HandlePath("/slo");
      EXPECT_EQ(slo.status, 200);
      EXPECT_NE(slo.body.find("\"windows\""), std::string::npos);
    }
  });
  for (int i = 0; i < 50; ++i) {
    MetricsRegistry::Global().GetCounter("tmtest.tm2.requests")->Add(1);
    const HttpResponse ts = telemetry.exporter().HandlePath("/timeseries");
    EXPECT_EQ(ts.status, 200);
    EXPECT_NE(ts.body.find("\"columns\""), std::string::npos);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  scraper.join();
  telemetry.Stop();
  EXPECT_GE(telemetry.SampleRows().size(), 2u);
  EXPECT_GE(telemetry.SloWindows(), 1u);
}

TEST(TelemetryTest, StopWritesTheTimeSeriesOnlyWhenSampling) {
  const fs::path dir = MakeScratchDir("telemetry_files");
  ASSERT_EQ(::getenv("DPDP_METRICS_DIR"), nullptr);
  ::setenv("DPDP_METRICS_DIR", dir.string().c_str(), 1);
  {
    Telemetry::Options options = FastTelemetryOptions("tm3");
    options.sampler.sample_interval_ms = 0;  // Sampling off, the SLO on.
    Telemetry telemetry(options);
    telemetry.Start();
    telemetry.Stop();
    EXPECT_EQ(telemetry.SloWindows(), 1u);
  }
  EXPECT_FALSE(fs::exists(dir / "timeseries.csv"));
  EXPECT_FALSE(fs::exists(dir / "timeseries.json"));
  {
    Telemetry telemetry(FastTelemetryOptions("tm4"));
    telemetry.Start();
    telemetry.Stop();
  }
  EXPECT_TRUE(fs::exists(dir / "timeseries.csv"));
  EXPECT_TRUE(fs::exists(dir / "timeseries.json"));
  ::unsetenv("DPDP_METRICS_DIR");
  fs::remove_all(dir);
}

TEST(TelemetryTest, DefaultsAreInert) {
  ASSERT_EQ(::getenv("DPDP_OBS_SAMPLE_MS"), nullptr);
  ASSERT_EQ(::getenv("DPDP_OBS_HTTP_PORT"), nullptr);
  const Telemetry::Options options = Telemetry::FromEnv();
  EXPECT_LE(options.sampler.sample_interval_ms, 0)
      << "telemetry knobs must default OFF";
  Telemetry telemetry(options);
  const size_t threads_before = ThreadCount();
  telemetry.Start();  // Must launch no thread and bind no socket.
  EXPECT_EQ(ThreadCount(), threads_before);
  EXPECT_FALSE(telemetry.exporter().running());
  telemetry.Stop();
  EXPECT_TRUE(telemetry.SampleRows().empty());
  EXPECT_EQ(telemetry.SloWindows(), 0u);
  // A disabled sampler ignores ticks; SampleAt still works.
  TimeSeriesSampler sampler(options.sampler);
  sampler.TickAt(0, GlobalSnapshot());
  EXPECT_EQ(sampler.RowCount(), 0u);
  sampler.SampleAt(0, GlobalSnapshot());
  EXPECT_EQ(sampler.RowCount(), 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, DisabledRecordingIsDropped) {
  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
  RecordFlight(FlightEventKind::kCustom, "tmtest.dropped");
  EXPECT_TRUE(SnapshotFlightEvents().empty());
}

TEST(FlightRecorderTest, RecordsEventsWithFieldsInOrder) {
  SetFlightRecorderEnabled(true);
  ResetFlightRecorder();
  RecordFlight(FlightEventKind::kCrash, "tmtest.crash", 3, 17);
  RecordFlight(FlightEventKind::kRestart, "tmtest.restart", 3, 2, 99);
  const std::vector<FlightEvent> events = SnapshotFlightEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kCrash);
  EXPECT_STREQ(events[0].name, "tmtest.crash");
  EXPECT_EQ(events[0].shard, 3);
  EXPECT_EQ(events[0].arg0, 17u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kRestart);
  EXPECT_EQ(events[1].arg1, 99u);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
}

TEST(FlightRecorderTest, RingKeepsOnlyTheNewestEvents) {
  SetFlightRecorderEnabled(true);
  ResetFlightRecorder();
  const int total = kFlightRingCapacity + 50;
  for (int i = 0; i < total; ++i) {
    RecordFlight(FlightEventKind::kCustom, "tmtest.wrap", -1,
                 static_cast<uint64_t>(i));
  }
  const std::vector<FlightEvent> events = SnapshotFlightEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kFlightRingCapacity));
  // Oldest-first, and the oldest survivors are the post-wrap ones.
  EXPECT_EQ(events.front().arg0, static_cast<uint64_t>(total) -
                                     static_cast<uint64_t>(kFlightRingCapacity));
  EXPECT_EQ(events.back().arg0, static_cast<uint64_t>(total - 1));
  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
}

TEST(FlightRecorderTest, ConcurrentWritersNeverBlockADump) {
  SetFlightRecorderEnabled(true);
  ResetFlightRecorder();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        RecordFlight(FlightEventKind::kCustom, "tmtest.race",
                     t, i++);
      }
    });
  }
  // Dumps racing the writers: seqlock skips torn slots, never blocks.
  for (int i = 0; i < 20; ++i) {
    const std::vector<FlightEvent> events = SnapshotFlightEvents();
    for (const FlightEvent& e : events) {
      EXPECT_GE(e.shard, 0);
      EXPECT_LT(e.shard, 3);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
}

TEST(FlightRecorderTest, DumpWritesWellFormedJson) {
  SetFlightRecorderEnabled(true);
  ResetFlightRecorder();
  RecordFlight(FlightEventKind::kBreaker, "tmtest.breaker", 1, 2);
  const fs::path dir = MakeScratchDir("flight_dump");
  const fs::path path = dir / "dump.json";
  ASSERT_TRUE(DumpFlightRecorder("unit_test", path.string()).ok());
  const std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(dump.find("\"dumped_at_ns\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\": \"breaker\""), std::string::npos);
  EXPECT_NE(dump.find("tmtest.breaker"), std::string::npos);
  EXPECT_NE(dump.find("\"shard\": 1"), std::string::npos);
  EXPECT_TRUE(NoTmpLeft(dir));
  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Request-hop tracing
// ---------------------------------------------------------------------------

TEST(TraceHopTest, DisabledTracingYieldsInactiveContexts) {
  SetTraceEnabled(false);
  const TraceContext context = NewTraceContext();
  EXPECT_FALSE(context.active());
  const TraceContext after =
      RecordHop("tmtest.hop", context, 0, 10, FlowPhase::kStart);
  EXPECT_FALSE(after.active());
  EXPECT_EQ(BufferedSpanCount(), 0u);
}

TEST(TraceHopTest, HopChainLinksParentsAndEmitsFlowEvents) {
  DiscardTrace();
  SetTraceEnabled(true);
  const TraceContext root = NewTraceContext();
  ASSERT_TRUE(root.active());
  EXPECT_EQ(root.span_id, 0u) << "root has no parent span";

  const int64_t t0 = MonotonicNanos();
  const TraceContext after_route = RecordHop("tmtest.hop.route", root, t0,
                                             t0 + 1000, FlowPhase::kStart);
  EXPECT_EQ(after_route.trace_id, root.trace_id);
  EXPECT_NE(after_route.span_id, 0u);
  const TraceContext after_queue =
      RecordHop("tmtest.hop.queue", after_route, t0 + 1000, t0 + 2000,
                FlowPhase::kStep);
  EXPECT_NE(after_queue.span_id, after_route.span_id);
  const TraceContext done = RecordHop("tmtest.hop.reply", after_queue,
                                      t0 + 2000, t0 + 3000, FlowPhase::kEnd);
  EXPECT_EQ(done.trace_id, root.trace_id);
  EXPECT_EQ(BufferedSpanCount(), 3u);

  const fs::path dir = MakeScratchDir("trace");
  const fs::path path = dir / "trace.json";
  ASSERT_TRUE(WriteTraceFile(path.string()).ok());
  SetTraceEnabled(false);
  const std::string trace = ReadFile(path);
  EXPECT_TRUE(NoTmpLeft(dir));
  EXPECT_EQ(BufferedSpanCount(), 0u) << "write must consume the buffers";

  // The three hop slices, with parent links: route's parent is 0 (the
  // root), queue's parent is route's span.
  EXPECT_NE(trace.find("\"tmtest.hop.route\""), std::string::npos);
  EXPECT_NE(trace.find("\"tmtest.hop.queue\""), std::string::npos);
  EXPECT_NE(trace.find("\"tmtest.hop.reply\""), std::string::npos);
  {
    std::ostringstream want;
    want << "\"trace\": " << root.trace_id << ", \"span\": "
         << after_route.span_id << ", \"parent\": 0";
    EXPECT_NE(trace.find(want.str()), std::string::npos) << trace;
  }
  {
    std::ostringstream want;
    want << "\"trace\": " << root.trace_id << ", \"span\": "
         << after_queue.span_id << ", \"parent\": " << after_route.span_id;
    EXPECT_NE(trace.find(want.str()), std::string::npos) << trace;
  }

  // One flow chain on the trace id: s -> t -> f, the f carrying the
  // enclosing-slice binding point.
  std::ostringstream flow_id;
  flow_id << "\"id\": " << root.trace_id;
  EXPECT_NE(trace.find("\"cat\": \"flow\", \"ph\": \"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"flow\", \"ph\": \"t\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"flow\", \"ph\": \"f\""), std::string::npos);
  EXPECT_NE(trace.find(flow_id.str()), std::string::npos);
  EXPECT_NE(trace.find("\"bp\": \"e\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(TraceHopTest, ServedRequestCarriesItsTraceIdIntoTheReply) {
  // End-to-end: with tracing on, a request served by the fabric surfaces
  // its trace id in the reply and leaves a connected hop chain (route ->
  // build -> queue -> eval -> commit -> reply) in the trace file. The
  // build runs on the submitting thread and is its own hop, so the route
  // hop measures routing alone. The trace file is written after the router
  // is gone, as at process exit: the buffered spans, the per-shard batch
  // span included, must keep their names.
  DiscardTrace();
  SetTraceEnabled(true);
  const AgentConfig config = MakeStDdqnConfig(51);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 1;
  serve_config.shard.max_wait_us = 200;
  serve_config.shard.commit_us = 50;  // > 0 so the commit hop exists.
  auto router = std::make_unique<ShardRouter>(serve_config, &models);

  const Instance inst = MakeTestInstance({MakeOrder(0, 1, 3, 5, 0, 600)}, 4);
  DispatchContext context;
  context.instance = &inst;
  context.order = &inst.orders[0];
  context.now = 100.0;
  context.time_interval = 10;
  context.options.resize(4);
  for (int v = 0; v < 4; ++v) {
    VehicleOption& opt = context.options[v];
    opt.vehicle = v;
    opt.feasible = true;
    opt.num_assigned_orders = v;
    opt.current_length = 5.0 + v;
    opt.new_length = 8.0 + 2.0 * v;
    opt.incremental_length = 3.0 + v;
    opt.position = {static_cast<double>(v), 0.0};
  }
  context.num_feasible = 4;

  auto hop_count = [](const char* name) {
    const std::vector<MetricSnapshot> snapshot =
        MetricsRegistry::Global().Snapshot();
    const MetricSnapshot* hop = FindMetric(snapshot, name);
    return hop == nullptr ? uint64_t{0} : hop->count;
  };
  const uint64_t routes_before = hop_count("serve.hop.route_s");
  const uint64_t builds_before = hop_count("serve.hop.build_s");
  const ServeReply reply = router->Submit(context).get();
  router->Stop();
  router.reset();
  EXPECT_NE(reply.trace_id, 0u);
  EXPECT_EQ(hop_count("serve.hop.route_s") - routes_before, 1u);
  EXPECT_EQ(hop_count("serve.hop.build_s") - builds_before, 1u);

  const fs::path dir = MakeScratchDir("served_trace");
  const fs::path path = dir / "trace.json";
  ASSERT_TRUE(WriteTraceFile(path.string()).ok());
  SetTraceEnabled(false);
  const std::string trace = ReadFile(path);
  for (const char* hop :
       {"serve.hop.route", "serve.hop.build", "serve.hop.queue",
        "serve.hop.eval", "serve.hop.commit", "serve.hop.reply"}) {
    EXPECT_NE(trace.find(hop), std::string::npos) << "missing hop " << hop;
  }
  EXPECT_NE(trace.find("{\"name\": \"serve.shard0\""), std::string::npos)
      << "the per-shard batch span lost its name";
  std::ostringstream want;
  want << "\"trace\": " << reply.trace_id;
  EXPECT_NE(trace.find(want.str()), std::string::npos)
      << "the reply's trace id must appear in the hop args";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Staged export path
// ---------------------------------------------------------------------------

TEST(StagedWriteTest, CreatesParentDirsAndLeavesNoTmp) {
  const fs::path dir = MakeScratchDir("staged");
  const fs::path nested = dir / "a" / "b" / "file.json";
  ASSERT_TRUE(internal::WriteFileStaged(nested.string(), "{\"x\": 1}\n").ok());
  EXPECT_EQ(ReadFile(nested), "{\"x\": 1}\n");
  EXPECT_TRUE(NoTmpLeft(nested.parent_path()));
  // Overwrite through the same staging path.
  ASSERT_TRUE(internal::WriteFileStaged(nested.string(), "{\"x\": 2}\n").ok());
  EXPECT_EQ(ReadFile(nested), "{\"x\": 2}\n");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The black box in anger: a chaos crash dumps the flight recorder
// ---------------------------------------------------------------------------

/// Scans chaos seeds for a schedule that fires exactly `wanted` at
/// (shard 0, tick 0) and nothing else in the shards x ticks window
/// (mirrors chaos_serve_test.cc — the found seed replays identically).
uint64_t FindSeedWithLoneFault(ChaosConfig config, ChaosAction wanted,
                               int shards, int ticks) {
  for (uint64_t seed = 1; seed < 500000; ++seed) {
    config.seed = seed;
    const ChaosPolicy policy(config);
    if (policy.ActionAt(0, 0) != wanted) continue;
    bool lone = true;
    for (int s = 0; s < shards && lone; ++s) {
      for (int t = (s == 0) ? 1 : 0; t < ticks && lone; ++t) {
        if (policy.ActionAt(s, t) != ChaosAction::kNone) lone = false;
      }
    }
    if (lone) return seed;
  }
  ADD_FAILURE() << "no lone-fault chaos seed in scan range";
  return 0;
}

/// A campus name the router's hash partition homes on `shard`.
std::string CampusOnShard(const ShardRouter& router, int shard) {
  for (int i = 0; i < 10000; ++i) {
    std::string name = "campus-" + std::to_string(i);
    if (router.ShardOfCampus(name) == shard) return name;
  }
  ADD_FAILURE() << "no campus name hashes to shard " << shard;
  return "";
}

TEST(FlightRecorderIntegrationTest, ShardDeathDumpsTheBlackBox) {
  ChaosConfig chaos;
  chaos.crash_prob = 0.05;
  chaos.seed = FindSeedWithLoneFault(chaos, ChaosAction::kCrash,
                                     /*shards=*/2, /*ticks=*/20);
  ASSERT_NE(chaos.seed, 0u);

  const fs::path dir = MakeScratchDir("shard_dead");
  ::setenv("DPDP_FLIGHT_RECORDER_FILE",
           (dir / "shard_dead.json").c_str(), 1);
  SetFlightRecorderEnabled(true);
  ResetFlightRecorder();

  const AgentConfig config = MakeStDdqnConfig(53);
  ModelServer models(config);
  ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.max_wait_us = 200;
  serve_config.shard.chaos = chaos;
  ShardRouter router(serve_config, &models);
  ShardSupervisor supervisor(SupervisorConfig{}, &router);  // Manual scans.

  Instance inst = MakeTestInstance({MakeOrder(0, 1, 3, 5, 0, 600)}, 4);
  inst.name = CampusOnShard(router, 0);
  DispatchContext context;
  context.instance = &inst;
  context.order = &inst.orders[0];
  context.now = 100.0;
  context.time_interval = 10;
  context.options.resize(4);
  for (int v = 0; v < 4; ++v) {
    VehicleOption& opt = context.options[v];
    opt.vehicle = v;
    opt.feasible = true;
    opt.incremental_length = 3.0 + v;
    opt.position = {static_cast<double>(v), 0.0};
  }
  context.num_feasible = 4;

  const uint64_t dumps_before = FlightRecorderDumps();
  std::future<ServeReply> orphan = router.Submit(context);
  ASSERT_TRUE(WaitFor([&] { return router.shard(0).crashed(); },
                      std::chrono::seconds(30)));

  // The dead-edge scan captures the black box BEFORE failover/restart
  // overwrite the rings, exactly once per death.
  supervisor.ScanOnce(MonotonicNanos());
  EXPECT_EQ(FlightRecorderDumps(), dumps_before + 1);
  supervisor.ScanOnce(MonotonicNanos());  // Healthy again: no second dump.
  EXPECT_EQ(FlightRecorderDumps(), dumps_before + 1);

  const ServeReply rescued = orphan.get();
  EXPECT_FALSE(rescued.shed);
  router.Stop();

  const std::string dump = ReadFile(dir / "shard_dead.json");
  EXPECT_NE(dump.find("\"reason\": \"shard_dead\""), std::string::npos);
  EXPECT_NE(dump.find("serve.crash"), std::string::npos)
      << "the crash event must be on the black box:\n"
      << dump;
  EXPECT_NE(dump.find("\"kind\": \"crash\""), std::string::npos);
  EXPECT_TRUE(NoTmpLeft(dir));

  SetFlightRecorderEnabled(false);
  ResetFlightRecorder();
  ::unsetenv("DPDP_FLIGHT_RECORDER_FILE");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dpdp::obs
