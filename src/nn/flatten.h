// Flattens channel-major {C, N, H, W} activations to {N, C·H·W} and
// transposes the gradient back on backward. Sample n's features are in the
// order c·H·W + i·W + j, so Dense sees each sample's channels in turn. This
// is the one transpose in the model; for C == 1 it is a plain copy.
#pragma once

#include "nn/layer.h"

namespace nn {

class Flatten : public Layer {
 public:
  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  std::string Name() const override { return "Flatten"; }

 private:
  tensor::Shape cached_shape_;
};

}  // namespace nn
