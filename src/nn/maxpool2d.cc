#include "nn/maxpool2d.h"

#include <limits>

#include "util/check.h"

namespace nn {
namespace {

// The H×W planes of a {C, N, H, W} tensor are contiguous (pooling never
// looks across the two leading dims) and each plane's height is a
// multiple of the window, so the batch pools as one stack of `rows` output
// rows: output row r reads input rows [r·win, (r+1)·win). kWindow == 0
// reads the window from `window`; a nonzero kWindow only lets the compiler
// unroll the same scan.
template <std::size_t kWindow>
void PoolForward(const float* in, std::size_t rows, std::size_t w,
                 std::size_t window, float* out, std::uint8_t* argmax) {
  const std::size_t win = kWindow != 0 ? kWindow : window;
  const std::size_t wo = w / win;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* band = in + r * win * w;
    for (std::size_t j = 0; j < wo; ++j) {
      const float* cell = band + j * win;
      float best = -std::numeric_limits<float>::infinity();
      std::uint32_t best_off = 0;
      for (std::size_t di = 0; di < win; ++di) {
        for (std::size_t dj = 0; dj < win; ++dj) {
          const float v = cell[di * w + dj];
          // All-ones when v wins. Masking instead of a conditional keeps
          // the compiler from turning the data-dependent select into a
          // (mispredicted) branch.
          const std::uint32_t take = 0u - static_cast<std::uint32_t>(v > best);
          best_off = (best_off & ~take) |
                     (static_cast<std::uint32_t>(di * win + dj) & take);
          best = v > best ? v : best;
        }
      }
      out[r * wo + j] = best;
      argmax[r * wo + j] = static_cast<std::uint8_t>(best_off);
    }
  }
}

template <std::size_t kWindow>
void PoolBackward(const float* grad, const std::uint8_t* argmax,
                  std::size_t rows, std::size_t w, std::size_t window,
                  float* dx) {
  const std::size_t win = kWindow != 0 ? kWindow : window;
  const std::size_t wo = w / win;
  // In-window offset -> distance from the window's first element.
  std::size_t step[256];
  for (std::size_t off = 0; off < win * win; ++off) {
    step[off] = (off / win) * w + off % win;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    float* band = dx + r * win * w;
    for (std::size_t j = 0; j < wo; ++j) {
      band[j * win + step[argmax[r * wo + j]]] += grad[r * wo + j];
    }
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  AF_CHECK_GT(window, 0u);
  AF_CHECK_LE(window, 16u) << "pooling window offsets are stored in one byte";
}

tensor::Tensor MaxPool2d::Forward(const tensor::Tensor& input) {
  AF_CHECK_EQ(input.rank(), 4u);
  const std::size_t channels = input.dim(0), batch = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  AF_CHECK_EQ(h % window_, 0u) << "height not divisible by pooling window";
  AF_CHECK_EQ(w % window_, 0u) << "width not divisible by pooling window";

  cached_shape_ = input.shape();
  tensor::Tensor out({channels, batch, h / window_, w / window_});
  argmax_.resize(out.size());
  auto* forward = window_ == 2 ? &PoolForward<2> : &PoolForward<0>;
  forward(input.data().data(), channels * batch * (h / window_), w, window_,
          out.data().data(), argmax_.data());
  return out;
}

tensor::Tensor MaxPool2d::Backward(const tensor::Tensor& grad_output) {
  AF_CHECK_EQ(cached_shape_.size(), 4u) << "Backward before Forward";
  AF_CHECK_EQ(grad_output.size(), argmax_.size());
  tensor::Tensor dx(cached_shape_);
  auto* backward = window_ == 2 ? &PoolBackward<2> : &PoolBackward<0>;
  const std::size_t rows =
      cached_shape_[0] * cached_shape_[1] * (cached_shape_[2] / window_);
  backward(grad_output.data().data(), argmax_.data(), rows, cached_shape_[3],
           window_, dx.data().data());
  return dx;
}

}  // namespace nn
