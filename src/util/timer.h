#ifndef DPDP_UTIL_TIMER_H_
#define DPDP_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace dpdp {

/// Nanoseconds on the steady (monotonic) clock since an arbitrary fixed
/// origin. This is the timestamp source for the tracer's spans and the
/// metrics latency histograms: unlike the system clock it never jumps
/// backwards across NTP adjustments, so span durations cannot go negative.
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock stopwatch used for the paper's wall-time columns.
/// Backed by the same steady clock as MonotonicNanos(), so elapsed times
/// are immune to system-clock adjustments too.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dpdp

#endif  // DPDP_UTIL_TIMER_H_
