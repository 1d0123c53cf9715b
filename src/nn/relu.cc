#include "nn/relu.h"

#include "util/check.h"

namespace nn {

tensor::Tensor ReLU::Forward(const tensor::Tensor& input) {
  const std::size_t n = input.size();
  tensor::Tensor out(input.shape());
  keep_.resize(n);
  const float* x = input.data().data();
  float* y = out.data().data();
  std::uint8_t* keep = keep_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = v < 0.0f ? 0.0f : v;
    keep[i] = !(v <= 0.0f);
  }
  return out;
}

tensor::Tensor ReLU::Backward(const tensor::Tensor& grad_output) {
  const std::size_t n = grad_output.size();
  AF_CHECK_EQ(n, keep_.size());
  tensor::Tensor dx(grad_output.shape());
  const float* g = grad_output.data().data();
  float* d = dx.data().data();
  const std::uint8_t* keep = keep_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i];  // loaded unconditionally so the select vectorizes
    d[i] = keep[i] != 0 ? gi : 0.0f;
  }
  return dx;
}

}  // namespace nn
