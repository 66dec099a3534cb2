// Tests for the observability layer (src/obs/ + util/log.h): exact
// concurrent metric sums, Chrome-trace output shape, logger filtering,
// and the determinism contract — telemetry is pure observation, so
// enabling it must not perturb simulation results.

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy_baselines.h"
#include "exp/harness.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "tests/test_util.h"
#include "util/log.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dpdp {
namespace {

// ----------------------------------------------------------- metrics ----

TEST(Counter, ConcurrentIncrementsSumExactly) {
  obs::Counter counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Counter, AddWithArgument) {
  obs::Counter counter("test.add_n");
  counter.Add(5);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), 12u);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge gauge("test.gauge");
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.75);
}

TEST(Gauge, ConcurrentAddSumsExactly) {
  obs::Gauge gauge("test.gauge_conc");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  // Each add is +1.0, exactly representable: the CAS loop must lose none.
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.0 * kThreads * kPerThread);
}

TEST(Histogram, BucketsAndOverflow) {
  obs::Histogram h("test.hist", {1.0, 2.0, 5.0});
  h.Record(0.5);   // bucket 0 (<= 1)
  h.Record(1.0);   // bucket 0 (le semantics)
  h.Record(1.5);   // bucket 1
  h.Record(10.0);  // overflow
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 13.0);
  const std::vector<uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);  // Overflow slot.
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  obs::MetricSnapshot snap;
  snap.kind = obs::MetricSnapshot::Kind::kHistogram;
  snap.bounds = {1.0, 2.0, 5.0};
  snap.buckets = {2, 2, 0, 0};  // 2 in (0,1], 2 in (1,2].
  snap.count = 4;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 1.0), 2.0);

  // Overflow samples clamp to the last finite bound.
  snap.buckets = {0, 0, 0, 3};
  snap.count = 3;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.99), 5.0);

  // Empty histograms and non-histogram snapshots report 0.
  snap.buckets = {0, 0, 0, 0};
  snap.count = 0;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.5), 0.0);
  obs::MetricSnapshot counter;
  counter.kind = obs::MetricSnapshot::Kind::kCounter;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(counter, 0.5), 0.0);
}

// Regression tests for the HistogramQuantile edge cases that used to be
// ill-defined: cold histograms, p0/p100, mass concentrated in one bucket,
// boundless histograms, and overflow-dominated distributions. The load
// generator reports per-shard percentiles straight from these snapshots,
// so a cold shard (zero samples) must yield a well-defined 0, not UB.
TEST(Histogram, QuantileEdgeCases) {
  obs::MetricSnapshot snap;
  snap.kind = obs::MetricSnapshot::Kind::kHistogram;
  snap.bounds = {1.0, 2.0, 5.0, 10.0};

  // Cold shard: no samples at all — every quantile is 0.
  snap.buckets = {0, 0, 0, 0, 0};
  snap.count = 0;
  snap.sum = 0.0;
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, q), 0.0) << "q=" << q;
  }

  // p0 is the lower edge of the first NON-EMPTY bucket (not of bucket 0),
  // p100 the upper edge of the last non-empty one (trailing empties and
  // an empty overflow bucket must not drag it to the final bound).
  snap.buckets = {0, 4, 0, 0, 0};  // All mass in (1, 2].
  snap.count = 4;
  snap.sum = 6.0;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 1.0), 2.0);

  // Single-bucket mass: every quantile interpolates inside that bucket,
  // monotonically in q.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.5), 1.5);
  double prev = -1.0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double v = obs::HistogramQuantile(snap, q);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 2.0);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }

  // q outside [0, 1] clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, -0.5),
                   obs::HistogramQuantile(snap, 0.0));
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 1.5),
                   obs::HistogramQuantile(snap, 1.0));

  // A boundless histogram (only the overflow bucket) has no positional
  // information: the sample mean is the estimate for every q.
  obs::MetricSnapshot boundless;
  boundless.kind = obs::MetricSnapshot::Kind::kHistogram;
  boundless.bounds = {};
  boundless.buckets = {5};
  boundless.count = 5;
  boundless.sum = 35.0;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(boundless, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(boundless, 1.0), 7.0);

  // Overflow-dominated mass: the clamp uses the mean when it exceeds the
  // last bound (plain clamping would systematically under-report), and
  // the last bound otherwise.
  snap.buckets = {0, 0, 0, 0, 3};
  snap.count = 3;
  snap.sum = 3000.0;  // Mean 1000 >> last bound 10.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.99), 1000.0);
  snap.sum = 9.0;  // Mean 3 < last bound 10: clamp to the bound.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(snap, 0.99), 10.0);
}

TEST(Histogram, ConcurrentRecordsSumExactly) {
  obs::Histogram h("test.hist_conc", obs::LatencyBucketsSeconds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1e-6 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t expected = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.Count(), expected);
  uint64_t bucket_total = 0;
  for (uint64_t b : h.BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, expected);
}

TEST(MetricsRegistry, SameNameReturnsSamePointer) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x");
  obs::Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
  obs::Histogram* h1 = registry.GetHistogram("h", {1.0, 2.0});
  obs::Histogram* h2 = registry.GetHistogram("h", {1.0, 2.0});
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b.counter")->Add(3);
  registry.GetGauge("a.gauge")->Set(1.5);
  registry.GetHistogram("c.hist", {1.0})->Record(0.5);
  const std::vector<obs::MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[1].name, "b.counter");
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_DOUBLE_EQ(snap[0].value, 1.5);
  EXPECT_DOUBLE_EQ(snap[1].value, 3.0);
  EXPECT_EQ(snap[2].count, 1u);
}

TEST(MetricsRegistry, CsvAndJsonExport) {
  obs::MetricsRegistry registry;
  registry.GetCounter("requests")->Add(2);
  registry.GetHistogram("lat", {1.0, 2.0})->Record(1.5);
  const std::vector<obs::MetricSnapshot> snap = registry.Snapshot();

  const std::string csv = obs::SnapshotToCsv(snap);
  EXPECT_NE(csv.find("name,kind,value,count,sum,buckets"), std::string::npos);
  EXPECT_NE(csv.find("requests,counter,2"), std::string::npos);
  EXPECT_NE(csv.find("le1:0;le2:1;leinf:0"), std::string::npos);

  const std::string json = obs::SnapshotToJson(snap);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(MetricsRegistry, WriteMetricsFilesHonorsDir) {
  const std::string dir = ::testing::TempDir() + "/dpdp_obs_metrics";
  obs::MetricsRegistry::Global().GetCounter("test.write_files")->Add();
  ASSERT_TRUE(obs::WriteMetricsFiles(dir).ok());
  std::ifstream csv(dir + "/metrics_snapshot.csv");
  ASSERT_TRUE(csv.good());
  std::stringstream contents;
  contents << csv.rdbuf();
  EXPECT_NE(contents.str().find("test.write_files"), std::string::npos);
  std::ifstream json(dir + "/metrics_snapshot.json");
  EXPECT_TRUE(json.good());
}

// ------------------------------------------------------------- tracer ----

TEST(Trace, DisabledSpansRecordNothing) {
  obs::SetTraceEnabled(false);
  obs::DiscardTrace();
  {
    DPDP_TRACE_SPAN("test.disabled");
  }
  EXPECT_EQ(obs::BufferedSpanCount(), 0u);
}

TEST(Trace, WritesWellFormedChromeTraceJson) {
  obs::SetTraceEnabled(true);
  obs::DiscardTrace();
  {
    DPDP_TRACE_SPAN("test.outer");
    DPDP_TRACE_SPAN("test.inner");
  }
  std::thread worker([] { DPDP_TRACE_SPAN("test.worker"); });
  worker.join();
  obs::SetTraceEnabled(false);
  EXPECT_EQ(obs::BufferedSpanCount(), 3u);

  const std::string path = ::testing::TempDir() + "/dpdp_obs_trace.json";
  ASSERT_TRUE(obs::WriteTraceFile(path).ok());
  EXPECT_EQ(obs::BufferedSpanCount(), 0u);  // Consumed by the write.

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string trace = buffer.str();
  // Golden shape of the Chrome trace-event format: an object with a
  // traceEvents array of complete ("ph":"X") events.
  EXPECT_EQ(trace.front(), '{');
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.worker\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\""), std::string::npos);
  EXPECT_NE(trace.find("\"dur\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy that catches
  // truncation or comma bugs without a JSON parser dependency.
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '['),
            std::count(trace.begin(), trace.end(), ']'));
}

TEST(Trace, MonotonicClockNeverGoesBackwards) {
  int64_t prev = MonotonicNanos();
  for (int i = 0; i < 1000; ++i) {
    const int64_t now = MonotonicNanos();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

// ------------------------------------------------------------- logger ----

class ScopedLogCapture {
 public:
  ScopedLogCapture() {
    saved_level_ = GetLogLevel();
    SetLogSink([this](LogLevel level, const char* /*file*/, int /*line*/,
                      const std::string& message) {
      lines_.push_back(std::string(LogLevelName(level)) + ": " + message);
    });
  }
  ~ScopedLogCapture() {
    SetLogSink(nullptr);
    SetLogLevel(saved_level_);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  LogLevel saved_level_;
  std::vector<std::string> lines_;
};

TEST(Log, LevelFiltering) {
  ScopedLogCapture capture;
  SetLogLevel(LogLevel::kWarn);
  DPDP_LOG(DEBUG) << "dropped-debug";
  DPDP_LOG(INFO) << "dropped-info";
  DPDP_LOG(WARN) << "kept-warn " << 42;
  DPDP_LOG(ERROR) << "kept-error";
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.lines()[0], "WARN: kept-warn 42");
  EXPECT_EQ(capture.lines()[1], "ERROR: kept-error");
}

TEST(Log, OffSilencesEverythingButRawLog) {
  ScopedLogCapture capture;
  SetLogLevel(LogLevel::kOff);
  DPDP_LOG(ERROR) << "dropped";
  internal::RawLog(LogLevel::kError, __FILE__, __LINE__, "check-failure");
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0], "ERROR: check-failure");
}

TEST(Log, MacroIsASingleStatement) {
  ScopedLogCapture capture;
  SetLogLevel(LogLevel::kInfo);
  // Braceless if/else must bind correctly around the for-macro.
  if (false)
    DPDP_LOG(INFO) << "never";
  else
    DPDP_LOG(INFO) << "taken";
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0], "INFO: taken");
}

// -------------------------------------------------- determinism guard ----

Instance SmallWorld() {
  using dpdp::testing::MakeOrder;
  std::vector<Order> orders;
  orders.push_back(MakeOrder(0, 1, 2, 40.0, 0.0, 300.0));
  orders.push_back(MakeOrder(1, 3, 4, 30.0, 10.0, 400.0));
  orders.push_back(MakeOrder(2, 2, 1, 20.0, 20.0, 500.0));
  orders.push_back(MakeOrder(3, 4, 3, 25.0, 30.0, 600.0));
  return dpdp::testing::MakeTestInstance(std::move(orders), 2);
}

TEST(ObsDeterminism, TelemetryDoesNotPerturbEpisodes) {
  const Instance inst = SmallWorld();
  MinIncrementalLengthDispatcher baseline;

  obs::SetTraceEnabled(false);
  Environment sim_off(&inst, SimulatorConfig{});
  const EpisodeResult off = RunEpisode(&sim_off, &baseline);

  obs::SetTraceEnabled(true);
  Environment sim_on(&inst, SimulatorConfig{});
  const EpisodeResult on = RunEpisode(&sim_on, &baseline);
  obs::SetTraceEnabled(false);
  obs::DiscardTrace();

  // Bit-identical, not approximately equal: telemetry is pure observation.
  EXPECT_EQ(off.nuv, on.nuv);
  EXPECT_EQ(off.total_cost, on.total_cost);
  EXPECT_EQ(off.total_travel_length, on.total_travel_length);
  EXPECT_EQ(off.num_decisions, on.num_decisions);
  EXPECT_GT(on.num_decisions, 0);
}

TEST(ObsDeterminism, ThreadCountGoldenHoldsWithObsEnabled) {
  // The repo-wide determinism contract (1-vs-N-thread bit-identical
  // results) must survive metrics + tracing being switched on.
  const Instance inst = SmallWorld();
  const nn::Matrix predicted(inst.network->num_factories(),
                             inst.num_time_intervals, 1.0);
  obs::SetTraceEnabled(true);
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const MethodSummary a =
      RunDrlMethod(inst, predicted, "DQN", /*episodes=*/2, /*num_seeds=*/2,
                   /*seed_base=*/11, &serial);
  const MethodSummary b =
      RunDrlMethod(inst, predicted, "DQN", /*episodes=*/2, /*num_seeds=*/2,
                   /*seed_base=*/11, &parallel);
  obs::SetTraceEnabled(false);
  obs::DiscardTrace();

  ASSERT_EQ(a.nuv.size(), 2u);
  ASSERT_EQ(b.nuv.size(), 2u);
  for (size_t s = 0; s < a.nuv.size(); ++s) {
    EXPECT_EQ(a.nuv[s], b.nuv[s]) << "seed " << s;
    EXPECT_EQ(a.tc[s], b.tc[s]) << "seed " << s;
  }
  // The rollup aggregates the same episodes either way.
  EXPECT_EQ(a.metrics.episodes, b.metrics.episodes);
  EXPECT_EQ(a.metrics.decisions, b.metrics.decisions);
  EXPECT_EQ(a.metrics.degraded_decisions, b.metrics.degraded_decisions);
}

TEST(ObsDeterminism, RegistryCountersReconcileWithEpisodeResult) {
  // Acceptance cross-check: the global sim.decisions counter and the
  // decision-latency histogram advance by exactly the per-episode
  // num_decisions total, and sim.degraded_decisions by the degraded total.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* decisions = registry.GetCounter("sim.decisions");
  obs::Counter* degraded = registry.GetCounter("sim.degraded_decisions");
  obs::Histogram* latency = registry.GetHistogram(
      "sim.decision_latency_s", obs::LatencyBucketsSeconds());

  const uint64_t decisions_before = decisions->Value();
  const uint64_t degraded_before = degraded->Value();
  const uint64_t latency_before = latency->Count();

  const Instance inst = SmallWorld();
  MinIncrementalLengthDispatcher baseline;
  const MethodSummary summary = RunBaseline(inst, &baseline);

  EXPECT_EQ(decisions->Value() - decisions_before,
            static_cast<uint64_t>(summary.metrics.decisions));
  EXPECT_EQ(latency->Count() - latency_before,
            static_cast<uint64_t>(summary.metrics.decisions));
  EXPECT_EQ(degraded->Value() - degraded_before,
            static_cast<uint64_t>(summary.metrics.degraded_decisions));
  EXPECT_GT(summary.metrics.decisions, 0);
}

}  // namespace
}  // namespace dpdp
