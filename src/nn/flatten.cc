#include "nn/flatten.h"

#include <cstring>

#include "util/check.h"

namespace nn {
namespace {

// Moves `blocks` × `count` runs of `run` floats from src to dst, where run
// (a, b) sits at src[(a·count + b)·run] and lands at dst[(b·blocks + a)·run]:
// the transpose of the two leading dims above a contiguous tail.
void SwapLeadingDims(const float* src, std::size_t blocks, std::size_t count,
                     std::size_t run, float* dst) {
  for (std::size_t a = 0; a < blocks; ++a) {
    for (std::size_t b = 0; b < count; ++b) {
      std::memcpy(dst + (b * blocks + a) * run, src + (a * count + b) * run,
                  run * sizeof(float));
    }
  }
}

}  // namespace

tensor::Tensor Flatten::Forward(const tensor::Tensor& input) {
  AF_CHECK_EQ(input.rank(), 4u) << "Flatten expects {C, N, H, W}";
  cached_shape_ = input.shape();
  const std::size_t channels = input.dim(0), batch = input.dim(1);
  const std::size_t plane = input.dim(2) * input.dim(3);
  tensor::Tensor out({batch, channels * plane});
  SwapLeadingDims(input.data().data(), channels, batch, plane,
                  out.data().data());
  return out;
}

tensor::Tensor Flatten::Backward(const tensor::Tensor& grad_output) {
  AF_CHECK_EQ(cached_shape_.size(), 4u) << "Backward before Forward";
  AF_CHECK_EQ(grad_output.size(), tensor::NumElements(cached_shape_));
  const std::size_t channels = cached_shape_[0], batch = cached_shape_[1];
  const std::size_t plane = cached_shape_[2] * cached_shape_[3];
  tensor::Tensor dx(cached_shape_);
  SwapLeadingDims(grad_output.data().data(), batch, channels, plane,
                  dx.data().data());
  return dx;
}

}  // namespace nn
