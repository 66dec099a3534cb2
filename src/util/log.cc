#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "util/env.h"
#include "util/status.h"

namespace dpdp {
namespace {

LogLevel ParseLevel(const std::string& text, LogLevel fallback) {
  if (text.empty()) return fallback;
  if (text.size() == 1 && text[0] >= '0' && text[0] <= '4') {
    return static_cast<LogLevel>(text[0] - '0');
  }
  std::string lower;
  for (char ch : text) {
    lower += static_cast<char>(
        ch >= 'A' && ch <= 'Z' ? ch - 'A' + 'a' : ch);
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  internal::CheckFailed(__FILE__, __LINE__, "strict env parse",
                        "DPDP_LOG_LEVEL=\"" + text +
                            "\" rejected: expected debug, info, warn, "
                            "error, off or 0-4");
}

LogLevel InitialLevel() {
  return ParseLevel(EnvStr("DPDP_LOG_LEVEL", ""), LogLevel::kInfo);
}

std::atomic<int> g_level{static_cast<int>(InitialLevel())};

std::mutex& SinkMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

LogSink& SinkSlot() {
  static LogSink* sink = new LogSink;
  return *sink;
}

void DefaultSink(LogLevel level, const char* file, int line,
                 const std::string& message) {
  // Strip the source tree prefix so lines read "sim/simulator.cc:42".
  const char* base = std::strstr(file, "src/");
  std::fprintf(stderr, "[%s] %s:%d: %s\n", LogLevelName(level),
               base != nullptr ? base + 4 : file, line, message.c_str());
}

void Emit(LogLevel level, const char* file, int line,
          const std::string& message) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  const LogSink& sink = SinkSlot();
  if (sink) {
    sink(level, file, line, message);
  } else {
    DefaultSink(level, file, line, message);
  }
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  SinkSlot() = std::move(sink);
}

namespace internal {

LogMessage::~LogMessage() { Emit(level_, file_, line_, stream_.str()); }

void RawLog(LogLevel level, const char* file, int line,
            const std::string& message) {
  Emit(level, file, line, message);
}

}  // namespace internal
}  // namespace dpdp
