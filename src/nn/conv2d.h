// 2-D convolution (stride 1, symmetric zero padding) via whole-batch
// im2col + one GEMM per pass.
//
// Activations are channel-major, {C, N, H, W} (see nn/layer.h); the weight
// is (out_channels, in_channels, k, k).
//
// Forward expands the entire batch into one (C·k·k) × (N·Ho·Wo) patch
// matrix and runs a single blocked GEMM against the weight, written
// straight into the {out, N, Ho, Wo} output (which is that GEMM's
// out × (N·Ho·Wo) result) before an in-place per-channel bias add.
// Backward reads grad_output in place as the GEMM operand: one GEMM for dW
// (accumulated in place) and one for the patch gradients, which col2im adds
// back into the input gradient. For same padding (Ho·Wo == H·W, e.g. 3×3
// pad 1) every patch row is one shifted span of its channel's N·H·W block:
// im2col copies the span and then zeroes the padding taps, col2im zeroes
// those taps in the patch gradients and then adds the whole span. Other
// paddings go row by row.
//
// Scratch memory: the im2col patch matrix lives in a per-layer arena that
// is reused across batches (grow-only, freed with the layer): patch·N·Ho·Wo
// floats. The col2im patch gradients are dead once Backward returns, so
// they live in one grow-only thread_local scratch shared by every Conv2d
// on the thread: the largest patch·N·Ho·Wo that thread has run Backward
// on, held until the thread exits. BackwardParamsOnly never touches it.
#pragma once

#include <random>
#include <vector>

#include "nn/layer.h"

namespace nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t padding, std::mt19937_64& rng);

  tensor::Tensor Forward(const tensor::Tensor& input) override;
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override;
  // Accumulates dW and db only: no patch-gradient GEMM, no col2im, no
  // input-gradient tensor.
  void BackwardParamsOnly(const tensor::Tensor& grad_output) override;

  std::vector<tensor::Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<tensor::Tensor*> Grads() override {
    return {&grad_weight_, &grad_bias_};
  }

  std::string Name() const override { return "Conv2d"; }

 private:
  // Output height or width for an input extent (stride 1).
  std::size_t OutExtent(std::size_t in) const {
    return in + 2 * padding_ - kernel_ + 1;
  }
  // Writes the (C·k·k) × (N·Ho·Wo) patch matrix of `input` into cols_;
  // every position is written, so the arena needs no pre-zeroing.
  void Im2Col(const float* input, std::size_t batch, std::size_t h,
              std::size_t w);
  // Adds the patch gradients `dcols` (patch × N·Ho·Wo) back into
  // `grad_input` (zeroed, {C, N, H, W}). Clobbers the padding taps of
  // `dcols`.
  void Col2Im(float* dcols, std::size_t batch, std::size_t h, std::size_t w,
              float* grad_input);
  // Checks grad_output against the last Forward and accumulates the
  // bias and weight gradients.
  void AccumulateParamGrads(const tensor::Tensor& grad_output);

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t padding_;
  tensor::Tensor weight_;       // (out, in, k, k)
  tensor::Tensor bias_;         // (out)
  tensor::Tensor grad_weight_;
  tensor::Tensor grad_bias_;
  tensor::Shape input_shape_;   // (C, N, H, W) of the last Forward

  // Reused arena (see the class comment for the memory bound). It doubles
  // as the backward cache: it holds everything dW needs, so the layer
  // keeps only the input's shape, not a copy of the input.
  std::vector<float> cols_;      // (patch, N·Ho·Wo) im2col of the input
};

}  // namespace nn
