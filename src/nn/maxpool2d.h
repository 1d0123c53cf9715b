// Max pooling with stride equal to the window size, over each H×W plane of
// a {C, N, H, W} activation.
//
// Each window is scanned row-major with a strict `>` from −inf, so ties go
// to the first element scanned and NaN never wins. Forward keeps the
// winner's in-window offset (di·window + dj) as one byte; a window with no
// element above −inf (all −inf or NaN) keeps offset 0, its first element.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace nn {

class MaxPool2d : public Layer {
 public:
  // window·window must fit the one-byte offset (window <= 16).
  explicit MaxPool2d(std::size_t window);

  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string Name() const override { return "MaxPool2d"; }

 private:
  std::size_t window_;
  tensor::Shape cached_shape_;
  std::vector<std::uint8_t> argmax_;  // in-window offset of each output max
};

}  // namespace nn
