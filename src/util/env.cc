#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/status.h"

namespace dpdp {

namespace {

/// Shared abort path for the strict readers: every rejection names the
/// variable, echoes the offending text, and states what was expected so
/// the fix is obvious from the crash line alone.
[[noreturn]] void StrictEnvFailed(const char* name, const char* value,
                                  const std::string& expected) {
  internal::CheckFailed(__FILE__, __LINE__, "strict env parse",
                        std::string(name) + "=\"" + value +
                            "\" rejected: expected " + expected);
}

/// Parses the ENTIRE value as a signed 64-bit integer or aborts.
int64_t ParseWholeInt(const char* name, const char* value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') {
    StrictEnvFailed(name, value, "an integer");
  }
  return static_cast<int64_t>(parsed);
}

std::string RangeText(const std::string& lo, const std::string& hi) {
  return "a value in [" + lo + ", " + hi + "]";
}

}  // namespace

std::string EnvStr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::string(v);
}

int EnvIntStrict(const char* name, int fallback, int min_value,
                 int max_value) {
  const int64_t v = EnvInt64Strict(name, fallback, min_value, max_value);
  return static_cast<int>(v);
}

int64_t EnvInt64Strict(const char* name, int64_t fallback, int64_t min_value,
                       int64_t max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return ParseIntStrict(name, raw, min_value, max_value);
}

int64_t ParseIntStrict(const char* name, const char* text, int64_t min_value,
                       int64_t max_value) {
  const int64_t parsed = ParseWholeInt(name, text);
  if (parsed < min_value || parsed > max_value) {
    StrictEnvFailed(name, text,
                    RangeText(std::to_string(min_value),
                              std::to_string(max_value)));
  }
  return parsed;
}

uint64_t EnvU64Strict(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (errno != 0 || end == raw || *end != '\0' || raw[0] == '-') {
    StrictEnvFailed(name, raw, "an unsigned 64-bit integer");
  }
  return static_cast<uint64_t>(parsed);
}

double EnvDoubleStrict(const char* name, double fallback, double min_value,
                       double max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(raw, &end);
  if (errno != 0 || end == raw || *end != '\0') {
    StrictEnvFailed(name, raw, "a number");
  }
  if (!(parsed >= min_value && parsed <= max_value)) {
    StrictEnvFailed(name, raw,
                    RangeText(std::to_string(min_value),
                              std::to_string(max_value)));
  }
  return parsed;
}

bool EnvBoolStrict(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  std::string lower(raw);
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") {
    return false;
  }
  StrictEnvFailed(name, raw, "one of 0/1/true/false/yes/no/on/off");
}

bool FastMode() { return EnvBoolStrict("DPDP_FAST", false); }

}  // namespace dpdp
