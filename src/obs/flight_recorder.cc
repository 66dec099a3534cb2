#include "obs/flight_recorder.h"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/timer.h"

namespace dpdp::obs {
namespace {

using internal::JsonEscape;

/// One seqlock-guarded ring slot. Every field is an atomic accessed with
/// relaxed order; the `seq` field (release on publish, acquire on read)
/// orders them. Writers are wait-free: bump seq to odd, store fields, bump
/// to even. Readers retry while seq is odd or changed mid-copy, then skip
/// the slot — a torn slot costs one missing event in a forensic dump, not
/// a stall on the serving path. TSan sees only atomics, so concurrent
/// dump-while-recording is race-free by construction.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<int64_t> t_ns{0};
  std::atomic<int> kind{0};
  std::atomic<const char*> name{""};
  std::atomic<int> shard{-1};
  std::atomic<uint64_t> arg0{0};
  std::atomic<uint64_t> arg1{0};
};

struct FlightRing;

struct RecorderState {
  std::mutex mu;                     ///< Guards rings + retired.
  std::vector<FlightRing*> rings;    ///< Live per-thread rings.
  std::vector<FlightEvent> retired;  ///< Events from exited threads.
};

RecorderState& State() {
  static RecorderState* state = new RecorderState;  // Leaked: atexit-safe.
  return *state;
}

/// Per-thread ring of the last kFlightRingCapacity events. Only the owning
/// thread writes; any thread may snapshot concurrently via the seqlocks.
struct FlightRing {
  Slot slots[kFlightRingCapacity];
  std::atomic<uint64_t> head{0};  ///< Next write position (monotone).

  FlightRing() {
    RecorderState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    state.rings.push_back(this);
  }

  ~FlightRing() {
    RecorderState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    state.rings.erase(
        std::remove(state.rings.begin(), state.rings.end(), this),
        state.rings.end());
    std::vector<FlightEvent> events;
    Drain(&events);
    state.retired.insert(state.retired.end(), events.begin(), events.end());
    // Cap retired growth: churning threads keep only the freshest tail.
    const size_t cap = 4 * kFlightRingCapacity;
    if (state.retired.size() > cap) {
      state.retired.erase(state.retired.begin(),
                          state.retired.end() - static_cast<long>(cap));
    }
  }

  void Record(const FlightEvent& event) {
    const uint64_t pos = head.load(std::memory_order_relaxed);
    Slot& slot = slots[pos % kFlightRingCapacity];
    const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_release);  // Odd: in flight.
    slot.t_ns.store(event.t_ns, std::memory_order_relaxed);
    slot.kind.store(static_cast<int>(event.kind), std::memory_order_relaxed);
    slot.name.store(event.name, std::memory_order_relaxed);
    slot.shard.store(event.shard, std::memory_order_relaxed);
    slot.arg0.store(event.arg0, std::memory_order_relaxed);
    slot.arg1.store(event.arg1, std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);  // Even: published.
    head.store(pos + 1, std::memory_order_relaxed);
  }

  /// Copies stable slots into `out` (oldest first within this ring).
  void Drain(std::vector<FlightEvent>* out) const {
    const uint64_t pos = head.load(std::memory_order_relaxed);
    const uint64_t n =
        std::min<uint64_t>(pos, static_cast<uint64_t>(kFlightRingCapacity));
    for (uint64_t i = pos - n; i < pos; ++i) {
      const Slot& slot = slots[i % kFlightRingCapacity];
      for (int attempt = 0; attempt < 4; ++attempt) {
        const uint64_t before = slot.seq.load(std::memory_order_acquire);
        if (before == 0 || (before & 1) != 0) break;  // Empty or mid-write.
        FlightEvent event;
        event.t_ns = slot.t_ns.load(std::memory_order_relaxed);
        event.kind = static_cast<FlightEventKind>(
            slot.kind.load(std::memory_order_relaxed));
        event.name = slot.name.load(std::memory_order_relaxed);
        event.shard = slot.shard.load(std::memory_order_relaxed);
        event.arg0 = slot.arg0.load(std::memory_order_relaxed);
        event.arg1 = slot.arg1.load(std::memory_order_relaxed);
        const uint64_t after = slot.seq.load(std::memory_order_acquire);
        if (before == after) {
          out->push_back(event);
          break;
        }
      }
    }
  }

  void Clear() {
    for (Slot& slot : slots) slot.seq.store(0, std::memory_order_relaxed);
    head.store(0, std::memory_order_relaxed);
  }
};

FlightRing& LocalRing() {
  thread_local FlightRing ring;
  return ring;
}

bool InitFlightEnabled() {
  return EnvBoolStrict("DPDP_FLIGHT_RECORDER", false);
}

std::atomic<uint64_t> g_dump_count{0};

}  // namespace

namespace internal {

std::atomic<bool> g_flight_enabled{InitFlightEnabled()};

void RecordFlightEvent(const FlightEvent& event) {
  FlightEvent stamped = event;
  stamped.t_ns = MonotonicNanos();
  LocalRing().Record(stamped);
}

}  // namespace internal

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kPublish:
      return "publish";
    case FlightEventKind::kQuarantine:
      return "quarantine";
    case FlightEventKind::kCrash:
      return "crash";
    case FlightEventKind::kRestart:
      return "restart";
    case FlightEventKind::kReroute:
      return "reroute";
    case FlightEventKind::kRestore:
      return "restore";
    case FlightEventKind::kBreaker:
      return "breaker";
    case FlightEventKind::kSloBreach:
      return "slo_breach";
    case FlightEventKind::kShed:
      return "shed";
    case FlightEventKind::kCustom:
      return "custom";
  }
  return "?";
}

void SetFlightRecorderEnabled(bool enabled) {
  internal::g_flight_enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<FlightEvent> SnapshotFlightEvents() {
  RecorderState& state = State();
  std::vector<FlightEvent> all;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    all = state.retired;
    for (const FlightRing* ring : state.rings) ring->Drain(&all);
  }
  std::sort(all.begin(), all.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.t_ns < b.t_ns;
            });
  return all;
}

std::string FlightEventsToJson(const std::vector<FlightEvent>& events,
                               const std::string& reason, int64_t now_ns) {
  std::ostringstream os;
  os << "{\n  \"reason\": \"" << JsonEscape(reason.c_str())
     << "\",\n  \"dumped_at_ns\": " << now_ns
     << ",\n  \"event_count\": " << events.size() << ",\n  \"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    os << (i ? "," : "") << "\n    {\"t_ns\": " << e.t_ns << ", \"kind\": \""
       << FlightEventKindName(e.kind) << "\", \"name\": \""
       << JsonEscape(e.name) << "\", \"shard\": " << e.shard
       << ", \"arg0\": " << e.arg0 << ", \"arg1\": " << e.arg1 << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Status DumpFlightRecorder(const std::string& reason,
                          const std::string& path) {
  std::string target = path;
  if (target.empty()) target = EnvStr("DPDP_FLIGHT_RECORDER_FILE", "");
  if (target.empty()) {
    const std::string dir = EnvStr("DPDP_METRICS_DIR", "");
    target = dir.empty() ? "flight_recorder.json"
                         : dir + "/flight_recorder.json";
  }
  const std::vector<FlightEvent> events = SnapshotFlightEvents();
  return internal::WriteFileStaged(
      target, FlightEventsToJson(events, reason, MonotonicNanos()));
}

void FlightRecorderAutoDump(const char* reason) {
  if (!FlightRecorderEnabled()) return;
  if (DumpFlightRecorder(reason).ok()) {
    g_dump_count.fetch_add(1, std::memory_order_relaxed);
    static Counter* dumps =
        MetricsRegistry::Global().GetCounter("obs.flight_dumps");
    dumps->Add(1);
  }
}

uint64_t FlightRecorderDumps() {
  return g_dump_count.load(std::memory_order_relaxed);
}

void ResetFlightRecorder() {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.retired.clear();
  for (FlightRing* ring : state.rings) ring->Clear();
}

}  // namespace dpdp::obs
