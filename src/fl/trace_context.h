// Deterministic trace ids shared by server and client.
//
// A traced run must stay bit-identical to an untraced one, so trace ids are
// never drawn from the simulation's RNG streams — they are pure SplitMix64
// mixes of (seed, client, job). Server and client derive the same ids from
// the same inputs, so their separately recorded spans join into one causal
// timeline without any id crossing the wire.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace fl {

// Pure mix of up to three words; `| 1` keeps the result non-zero (0 means
// "no context" everywhere in the trace plane).
inline std::uint64_t MixTraceId(std::uint64_t a, std::uint64_t b,
                                std::uint64_t c) {
  std::uint64_t state = a;
  state ^= 0x9E3779B97F4A7C15ull * (b + 1);
  util::SplitMix64(state);
  state ^= 0xBF58476D1CE4E5B9ull * (c + 1);
  return util::SplitMix64(state) | 1;
}

// One trace id per training job: the logical operation "dispatch → train →
// upload → defense verdict" end to end.
inline std::uint64_t TraceIdFor(std::uint64_t seed, int client_id,
                                std::uint64_t job_index) {
  return MixTraceId(seed, static_cast<std::uint64_t>(client_id), job_index);
}

// Fixed span ids within a trace, so parent links survive process boundaries.
inline std::uint64_t DispatchSpanId(std::uint64_t trace_id) {
  return MixTraceId(trace_id, 1, 0);
}
inline std::uint64_t TrainSpanId(std::uint64_t trace_id) {
  return MixTraceId(trace_id, 2, 0);
}
inline std::uint64_t DefenseSpanId(std::uint64_t trace_id) {
  return MixTraceId(trace_id, 3, 0);
}

}  // namespace fl
