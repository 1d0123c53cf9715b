// Elementwise ReLU, so it takes any layout ({N, features} or
// {C, N, H, W}) unchanged.
//
// Forward writes the output and a 1-byte keep-mask in one branch-free pass;
// backward is one branch-free select over the mask. Edge semantics: the
// output is x < 0 ? 0 : x, so NaN and −0.0 pass through unchanged; the
// gradient flows where !(x <= 0), so NaN passes it and ±0.0 blocks it.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace nn {

class ReLU : public Layer {
 public:
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string Name() const override { return "ReLU"; }

 private:
  std::vector<std::uint8_t> keep_;  // 1 where the gradient flows
};

}  // namespace nn
