#ifndef DPDP_UTIL_BINARY_IO_H_
#define DPDP_UTIL_BINARY_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <type_traits>

#include "util/rng.h"

namespace dpdp {

/// The binary codec of saved training state (agent blobs, replay rings,
/// learner extras): the raw host-order bytes of a trivially copyable
/// value. Readers return false on a short read, so every caller can turn
/// truncated input into a Status.
template <typename T>
void WritePod(std::ostream* os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream* is, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  is->read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(*is);
}

/// An Rng::State as its seed, the four xoshiro words, one cached-normal
/// flag byte and the cached normal: 49 bytes.
inline void WriteRngState(std::ostream* os, const Rng::State& state) {
  WritePod(os, state.seed);
  for (uint64_t word : state.s) WritePod(os, word);
  WritePod(os, static_cast<uint8_t>(state.have_cached_normal ? 1 : 0));
  WritePod(os, state.cached_normal);
}

inline bool ReadRngState(std::istream* is, Rng::State* state) {
  uint8_t have_cached = 0;
  if (!ReadPod(is, &state->seed) || !ReadPod(is, &state->s[0]) ||
      !ReadPod(is, &state->s[1]) || !ReadPod(is, &state->s[2]) ||
      !ReadPod(is, &state->s[3]) || !ReadPod(is, &have_cached) ||
      !ReadPod(is, &state->cached_normal)) {
    return false;
  }
  state->have_cached_normal = have_cached != 0;
  return true;
}

}  // namespace dpdp

#endif  // DPDP_UTIL_BINARY_IO_H_
