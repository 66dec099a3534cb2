#ifndef DPDP_UTIL_ENV_H_
#define DPDP_UTIL_ENV_H_

#include <cstdint>
#include <string>

namespace dpdp {

/// The readers of every numeric and on/off DPDP_* knob: the library's
/// FromEnv config layers, the runtime switches (DPDP_THREADS, DPDP_TRACE,
/// DPDP_PARALLEL_BATCH, ...) and the bench and example binaries
/// (DPDP_EPISODES, DPDP_SEEDS, ...). The whole value must parse as the
/// requested type and fall inside [min_value, max_value]; anything else
/// aborts with a DPDP_CHECK diagnostic naming the variable, the rejected
/// text, and the accepted range — a typo'd knob must never silently run
/// with atoi's best-effort 0. Unset or empty variables fall back (the
/// fallback itself is trusted, not range-checked).
int EnvIntStrict(const char* name, int fallback, int min_value, int max_value);
int64_t EnvInt64Strict(const char* name, int64_t fallback, int64_t min_value,
                       int64_t max_value);
uint64_t EnvU64Strict(const char* name, uint64_t fallback);
double EnvDoubleStrict(const char* name, double fallback, double min_value,
                       double max_value);
/// Accepts 0/1/true/false/yes/no/on/off, case-insensitive.
bool EnvBoolStrict(const char* name, bool fallback);

/// The integer parser behind EnvInt64Strict, for a knob value that arrives
/// some other way (one item of a list-valued variable, a command-line
/// argument): `text` must parse whole into [min_value, max_value], else
/// the same diagnostic aborts, naming `name` and `text`.
int64_t ParseIntStrict(const char* name, const char* text, int64_t min_value,
                       int64_t max_value);

/// Reads a string from the environment (e.g. DPDP_CHECKPOINT_DIR, the
/// default checkpoint directory of the trainer). Empty values fall back.
std::string EnvStr(const char* name, const std::string& fallback);

/// True when DPDP_FAST is on (EnvBoolStrict): bench binaries shrink
/// training budgets for smoke runs.
bool FastMode();

}  // namespace dpdp

#endif  // DPDP_UTIL_ENV_H_
