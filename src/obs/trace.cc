#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "util/env.h"

namespace dpdp::obs {
namespace {

using internal::JsonEscape;

struct TraceEvent {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int tid = 0;  ///< Stamped by AppendEvent from the owning buffer.
  /// Request-scoped linkage; all zero for plain spans.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  FlowPhase flow = FlowPhase::kNone;
};

/// Per-thread span buffer. The owning thread appends under the buffer's
/// own (uncontended) mutex; the writer thread locks the same mutex to
/// drain, so flushing while other threads keep tracing is safe. On thread
/// exit the remaining events retire into the global list.
struct ThreadBuffer;

struct TraceState {
  std::mutex mu;                       ///< Guards buffers + retired.
  std::vector<ThreadBuffer*> buffers;  ///< Live per-thread buffers.
  std::vector<TraceEvent> retired;     ///< Events from exited threads.
  std::atomic<int> next_tid{0};
};

TraceState& State() {
  static TraceState* state = new TraceState;  // Leaked: see registry note.
  return *state;
}

struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  int tid;

  ThreadBuffer() {
    TraceState& state = State();
    tid = state.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(state.mu);
    state.buffers.push_back(this);
  }

  ~ThreadBuffer() {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    state.buffers.erase(
        std::remove(state.buffers.begin(), state.buffers.end(), this),
        state.buffers.end());
    std::lock_guard<std::mutex> self(mu);
    state.retired.insert(state.retired.end(), events.begin(), events.end());
  }
};

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

void AppendEvent(const TraceEvent& event) {
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(event);
  buffer.events.back().tid = buffer.tid;
}

/// Collects (and consumes) every buffered event, sorted by start time.
std::vector<TraceEvent> DrainAll() {
  TraceState& state = State();
  std::vector<TraceEvent> all;
  std::lock_guard<std::mutex> lock(state.mu);
  all.swap(state.retired);
  for (ThreadBuffer* buffer : state.buffers) {
    std::lock_guard<std::mutex> self(buffer->mu);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    buffer->events.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

void WriteTraceAtExit() {
  if (TraceEnabled()) (void)WriteTraceFile();
}

bool InitTraceEnabled() {
  const bool enabled = EnvBoolStrict("DPDP_TRACE", false);
  // Bench/example binaries get a trace file without any explicit flush
  // call; explicit WriteTraceFile calls earlier just leave an empty tail.
  if (enabled) std::atexit(WriteTraceAtExit);
  return enabled;
}

/// Monotone span-id source shared by traces and hops. Starts at 1 so id 0
/// stays the "no trace" sentinel.
std::atomic<uint64_t> g_next_id{1};

}  // namespace

namespace internal {

std::atomic<bool> g_trace_enabled{InitTraceEnabled()};

void RecordSpan(const char* name, int64_t start_ns, int64_t end_ns) {
  TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  AppendEvent(event);
}

}  // namespace internal

void SetTraceEnabled(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

TraceContext NewTraceContext() {
  if (!TraceEnabled()) return {};
  TraceContext context;
  context.trace_id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  context.span_id = 0;  // Root: the first hop records parent 0.
  return context;
}

TraceContext RecordHop(const char* name, const TraceContext& trace,
                       int64_t start_ns, int64_t end_ns, FlowPhase phase) {
  if (!trace.active()) return trace;
  TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.trace_id = trace.trace_id;
  event.span_id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  event.parent_id = trace.span_id;
  event.flow = phase;
  AppendEvent(event);
  TraceContext next = trace;
  next.span_id = event.span_id;
  return next;
}

size_t BufferedSpanCount() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  size_t n = state.retired.size();
  for (ThreadBuffer* buffer : state.buffers) {
    std::lock_guard<std::mutex> self(buffer->mu);
    n += buffer->events.size();
  }
  return n;
}

void DiscardTrace() { DrainAll(); }

Status WriteTraceFile(const std::string& path) {
  std::string target = path;
  if (target.empty()) target = EnvStr("DPDP_TRACE_FILE", "");
  if (target.empty()) {
    const std::string dir = EnvStr("DPDP_METRICS_DIR", "");
    target = dir.empty() ? "dpdp_trace.json" : dir + "/trace.json";
  }
  const std::vector<TraceEvent> events = DrainAll();
  std::ostringstream os;
  // Chrome trace-event format: complete ("ph":"X") events, microsecond
  // timestamps relative to the earliest span so traces start near t=0.
  // Request hops additionally carry their trace/span/parent ids as args
  // and an adjacent flow event (s/t/f chained on the trace id), so one
  // request's hops render as a connected lane across service threads.
  const int64_t origin_ns = events.empty() ? 0 : events.front().start_ns;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    const double ts_us = static_cast<double>(e.start_ns - origin_ns) / 1e3;
    const double dur_us = static_cast<double>(e.end_ns - e.start_ns) / 1e3;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": %d",
                  ts_us, dur_us, e.tid);
    os << "\n{\"name\": \"" << JsonEscape(e.name) << "\", \"cat\": \"dpdp\", "
       << buf;
    if (e.trace_id != 0) {
      std::snprintf(buf, sizeof(buf),
                    ", \"args\": {\"trace\": %llu, \"span\": %llu, "
                    "\"parent\": %llu}",
                    static_cast<unsigned long long>(e.trace_id),
                    static_cast<unsigned long long>(e.span_id),
                    static_cast<unsigned long long>(e.parent_id));
      os << buf;
    }
    os << "}";
    if (e.flow != FlowPhase::kNone) {
      // The flow event binds to the slice enclosing its timestamp on this
      // thread, i.e. the hop span just written. One chain per request:
      // name/cat/id identical across the chain, phases s -> t... -> f.
      const char* ph = e.flow == FlowPhase::kStart
                           ? "s"
                           : (e.flow == FlowPhase::kStep ? "t" : "f");
      std::snprintf(buf, sizeof(buf),
                    "\n{\"name\": \"serve.request\", \"cat\": \"flow\", "
                    "\"ph\": \"%s\", \"id\": %llu, \"ts\": %.3f, "
                    "\"pid\": 1, \"tid\": %d%s}",
                    ph, static_cast<unsigned long long>(e.trace_id), ts_us,
                    e.tid, e.flow == FlowPhase::kEnd ? ", \"bp\": \"e\"" : "");
      os << "," << buf;
    }
  }
  os << "\n]}\n";
  return internal::WriteFileStaged(target, os.str());
}

}  // namespace dpdp::obs
