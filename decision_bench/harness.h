#ifndef DPDP_DECISION_BENCH_HARNESS_H_
#define DPDP_DECISION_BENCH_HARNESS_H_

// Shared plumbing of the dispatch-decision benchmark: run options, the
// result report, per-decision latency samples, the traced-run span
// recorder, registry deltas and the output checks.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/instance.h"
#include "sim/dispatcher.h"

namespace dpdp::bench {

struct Options {
  std::string workload;
  /// Workload seed: picks the paper world's test days (fig7_stddgn,
  /// serve_fig7) and the train_fig6 instance; 7 gives the instance of
  /// bench/fig6_large_scale.cc.
  uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace written at the end of a traced run.
  std::string trace_file = "decision_bench_trace.json";
  /// Stop after the set-up and report only setup_s. run.py starts such
  /// processes beside the timed one, so that every set-up it takes the
  /// median of starts in a fresh process.
  bool setup_only = false;
};

/// What one workload process reports: metrics by name with units, the
/// effective configuration, the output checks and the attempted / failed
/// order counts.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);
  /// Records one output check; `detail` says what was compared.
  void Check(const std::string& name, bool ok, const std::string& detail);

  bool correct() const;
  /// One JSON object: provenance, config, checks, counts and metrics.
  std::string ToJson(const Options& options) const;

  long attempted = 0;
  long failed = 0;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<CheckEntry> checks_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank percentile of raw samples, in milliseconds
/// (serve::PercentileNearestRank over seconds).
double PercentileMs(const std::vector<double>& samples_s, double q);

/// One timed decision: when it completed and its latency.
struct Sample {
  int64_t end_ns;
  double latency_s;
};

/// Adds decisions_per_s, decision_p50_ms, decision_p90_ms and
/// decision_p99_ms. The timed decisions, in completion order, are cut into
/// windows of equal count (as many as fit, at most 15, each of at least
/// 1000 decisions so that at least 10 lie beyond its p99); each metric is
/// the median over the windows of the window's decisions per second and
/// nearest-rank percentiles of its raw samples. A slow spell of the machine
/// then moves one window, not the result. `window_rates`, when not empty,
/// replaces the count windows for decisions_per_s (train_fig6 uses its
/// identical blocks, and takes its latencies from the warmed-up policy's
/// greedy decisions only). The whole-run figures over all `decisions` of
/// the timed region [start_ns, end_ns) and the sample counts are added
/// too.
void AddDecisionMetrics(std::vector<Sample> samples, long decisions,
                        int64_t start_ns, int64_t end_ns,
                        const std::vector<double>& window_rates,
                        Report* report);

/// Peak resident set of this process image so far, in MiB.
double PeakRssMb();

/// Seconds between two MonotonicNanos stamps.
inline double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Moves the calling thread round the CPUs it may run on, one CPU further
/// each time kHopNs have passed at a Tick, and gives the thread back its
/// CPU set when destroyed. The cores of a shared virtual machine run at
/// different and changing speeds, and a thread the scheduler leaves on one
/// core measures that core; visiting every core in turn makes one run's
/// figure an average over the machine's cores. The single-threaded loops
/// (fig7_stddgn, train_fig6 and the warm-ups) tick after every decision
/// and before every Learn.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Hops to the next CPU once kHopNs have passed since the last hop.
  void Tick();

 private:
  static constexpr int64_t kHopNs = 100'000'000;
  std::vector<int> cpus_;  ///< The thread's CPU set at construction.
  size_t next_ = 0;
  int64_t last_hop_ns_ = 0;
};

/// Span recorder of the traced run. Every span is a call the benchmark
/// makes into a public function of a module. Spans of one decision share
/// a trace id; each names the previous step of the decision as its parent
/// (obs::RecordHop), so the chain reads advance -> ... -> apply. Spans go
/// to the obs in-memory buffers, next to the library's own spans, and are
/// written once at the end (obs::WriteTraceFile). Per-name totals and raw
/// durations are kept here for the per-layer metrics. When disabled every
/// call is a no-op, so the untraced loops pay one branch.
class Tracer {
 public:
  /// The steps of one in-flight decision. In-process loops use the
  /// tracer's own chain; a served client keeps one per campus, because
  /// its campuses' decisions overlap in time.
  struct Chain {
    struct StepSpan {
      const char* name;
      int64_t start_ns;
      int64_t end_ns;
    };
    std::vector<StepSpan> steps;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Appends one step [start_ns, end_ns) to a decision's chain.
  void Step(Chain* chain, const char* name, int64_t start_ns, int64_t end_ns);
  void Step(const char* name, int64_t start_ns, int64_t end_ns) {
    Step(&chain_, name, start_ns, end_ns);
  }
  /// Closes a decision: emits its steps as one trace and folds them into
  /// the stats.
  void EndDecision(Chain* chain);
  void EndDecision() { EndDecision(&chain_); }
  /// Drops a decision's steps (a served decision that ended after the
  /// timed region).
  static void Discard(Chain* chain) { chain->steps.clear(); }
  /// A span outside any decision (learner update, set-up phase).
  void Span(const char* name, int64_t start_ns, int64_t end_ns);
  /// Folds a duration into the per-name stats without emitting a span
  /// (quantities that are not one contiguous call on one thread, such as
  /// a served request's submit -> reply round trip).
  void Stat(const char* name, double seconds);

  struct Stats {
    long count = 0;
    double total_s = 0.0;
    std::vector<double> samples_s;
  };
  /// Stats of `name` (empty stats when never recorded).
  const Stats& Get(const std::string& name) const;
  /// Adds another tracer's stats (one tracer per client thread).
  void Merge(const Tracer& other);

 private:
  bool enabled_;
  Chain chain_;
  std::map<std::string, Stats> stats_;
};

/// Counter and histogram deltas of the global obs registry between
/// construction and Stop.
class RegistryDelta {
 public:
  RegistryDelta() : begin_(Take()) {}
  void Stop();
  /// Counter delta (0 for an unknown name).
  double Counter(const std::string& name) const;
  /// Histogram sample-sum delta.
  double HistogramSum(const std::string& name) const;

 private:
  struct Value {
    double value = 0.0;
    double sum = 0.0;
  };
  static std::map<std::string, Value> Take();
  std::map<std::string, Value> begin_;
  std::map<std::string, Value> delta_;
};

/// TC recomputed from the executed routes alone: mu * NUV + delta * TTL,
/// each route driven depot -> stops -> depot on the road network.
double RecomputeTotalCost(const Instance& instance,
                          const EpisodeResult& result);

/// The output checks shared by every workload, run untimed on each
/// completed episode (record_plan on): the feasibility oracle of
/// tests/test_util.h on every executed route, and the reported TC against
/// the TC recomputed from the routes.
class EpisodeChecker {
 public:
  /// `label` names the episode in a failure detail.
  void Add(const Instance& instance, const EpisodeResult& result,
           const std::string& label);
  /// Adds the feasibility_oracle and tc_recomputed checks to `report`.
  void Finish(Report* report) const;

 private:
  long episodes_ = 0;
  long routes_ = 0;
  std::string oracle_failure_;
  std::string tc_failure_;
};

/// Order accounting of an episode, finished or cut at the deadline:
/// attempted += decisions + unserved orders; failed += degraded decisions
/// + unserved orders.
void CountOrders(const EpisodeResult& result, long* attempted, long* failed);

/// Formats a double with all its digits.
std::string Num(double value);

}  // namespace dpdp::bench

#endif  // DPDP_DECISION_BENCH_HARNESS_H_
