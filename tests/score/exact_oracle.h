// Exact oracle for the streaming scorer: every quantity recomputed from
// scratch, with no cache, through the same tensor::kernels calls and the
// same formula StreamingScorer evaluates. Cached answers must match it bit
// for bit, after any sequence of buffer and reference mutations.
#pragma once

#include <cmath>
#include <span>

#include "tensor/kernels.h"

namespace score::oracle {

inline double SquaredNorm(std::span<const float> a) {
  return tensor::kernels::SumSquares(a.data(), a.size());
}

inline double Dot(std::span<const float> a, std::span<const float> b) {
  return tensor::kernels::Dot(a.data(), b.data(), a.size());
}

// ‖a − b‖² = ‖a‖² + ‖b‖² − 2⟨a, b⟩, clamped at 0 (cancellation can leave a
// tiny negative).
inline double SquaredDistance(std::span<const float> a,
                              std::span<const float> b) {
  const double d2 = SquaredNorm(a) + SquaredNorm(b) - 2.0 * Dot(a, b);
  return d2 > 0.0 ? d2 : 0.0;
}

// ‖ref − ω‖, the distance behind every suspicious score.
inline double Distance(std::span<const float> ref, std::span<const float> w) {
  return std::sqrt(SquaredDistance(ref, w));
}

}  // namespace score::oracle
