#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"
#include "util/check.h"

namespace nn {
namespace {

// Half-open index range [lo, hi).
struct Range {
  std::size_t lo;
  std::size_t hi;
};

// Output positions along one axis whose tap at kernel offset `k` reads
// inside the input: 0 <= o + k - pad < in. Positions outside are padding
// taps.
Range ValidTaps(std::size_t k, std::size_t pad, std::size_t in,
                   std::size_t out) {
  const std::size_t lo = std::min(out, k < pad ? pad - k : 0);
  const std::size_t end = in + pad > k ? in + pad - k : 0;
  return {lo, std::max(lo, std::min(out, end))};
}

// The span shift of tap (ki, kj) in a same-padding layer: patch-row
// position q of a channel's N·H·W block reads input position q + shift.
long SpanShift(std::size_t ki, std::size_t kj, std::size_t pad,
               std::size_t w) {
  const long p = static_cast<long>(pad);
  return (static_cast<long>(ki) - p) * static_cast<long>(w) +
         (static_cast<long>(kj) - p);
}

// Positions q of a length-`len` span whose shifted partner q + shift lies
// inside [0, len). Every position outside is a padding tap.
Range SpanOverlap(long shift, std::size_t len) {
  const std::size_t mag = std::min(len, static_cast<std::size_t>(
                                            shift < 0 ? -shift : shift));
  return shift < 0 ? Range{mag, len} : Range{0, len - mag};
}

// Zeroes the padding taps of one same-padding patch row (batch images of
// h × w outputs): edge columns in a strided pass over every image row,
// then edge image rows with a memset per image.
void ZeroPaddingTaps(float* row, std::size_t batch, std::size_t h,
                     std::size_t w, Range rows, Range cols) {
  auto zero_column = [row, w, image_rows = batch * h](std::size_t j) {
    for (std::size_t r = 0; r < image_rows; ++r) {
      row[r * w + j] = 0.0f;
    }
  };
  for (std::size_t j = 0; j < cols.lo; ++j) {
    zero_column(j);
  }
  for (std::size_t j = cols.hi; j < w; ++j) {
    zero_column(j);
  }
  if (rows.lo > 0 || rows.hi < h) {
    for (std::size_t n = 0; n < batch; ++n) {
      float* image = row + n * h * w;
      std::memset(image, 0, rows.lo * w * sizeof(float));
      std::memset(image + rows.hi * w, 0, (h - rows.hi) * w * sizeof(float));
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding, std::mt19937_64& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  AF_CHECK_GT(kernel, 0u);
  const float fan_in =
      static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  weight_.FillUniform(-bound, bound, rng);
}

void Conv2d::Im2Col(const float* input, std::size_t batch, std::size_t h,
                    std::size_t w) {
  const std::size_t ho = OutExtent(h);
  const std::size_t wo = OutExtent(w);
  const std::size_t ld = batch * ho * wo;
  const std::size_t plane = batch * h * w;  // one channel's input block
  const bool same = ho == h && wo == w;
  for (std::size_t c = 0; c < in_channels_; ++c) {
    const float* in = input + c * plane;
    for (std::size_t ki = 0; ki < kernel_; ++ki) {
      const Range rows = ValidTaps(ki, padding_, h, ho);
      for (std::size_t kj = 0; kj < kernel_; ++kj) {
        const Range cols = ValidTaps(kj, padding_, w, wo);
        float* drow = cols_.data() + ((c * kernel_ + ki) * kernel_ + kj) * ld;
        if (same) {
          // Output position q reads input position q + shift; positions
          // whose read wraps into a neighbouring row or image, or falls
          // off the block, are padding taps and get zeroed after the copy.
          const long shift = SpanShift(ki, kj, padding_, w);
          const Range span = SpanOverlap(shift, plane);
          if (span.hi > span.lo) {
            std::memcpy(drow + span.lo,
                        in + (static_cast<long>(span.lo) + shift),
                        (span.hi - span.lo) * sizeof(float));
          }
          ZeroPaddingTaps(drow, batch, h, w, rows, cols);
          continue;
        }
        for (std::size_t n = 0; n < batch; ++n) {
          for (std::size_t oi = 0; oi < ho; ++oi) {
            float* d = drow + (n * ho + oi) * wo;
            if (oi < rows.lo || oi >= rows.hi || cols.hi == cols.lo) {
              std::fill(d, d + wo, 0.0f);
              continue;
            }
            const float* s = in + (n * h + oi + ki - padding_) * w +
                             (cols.lo + kj - padding_);
            std::fill(d, d + cols.lo, 0.0f);
            std::memcpy(d + cols.lo, s, (cols.hi - cols.lo) * sizeof(float));
            std::fill(d + cols.hi, d + wo, 0.0f);
          }
        }
      }
    }
  }
}

void Conv2d::Col2Im(float* dcols, std::size_t batch, std::size_t h,
                    std::size_t w, float* grad_input) {
  const std::size_t ho = OutExtent(h);
  const std::size_t wo = OutExtent(w);
  const std::size_t ld = batch * ho * wo;
  const std::size_t plane = batch * h * w;
  const bool same = ho == h && wo == w;
  // Each input element receives its taps in ascending (ki, kj) order, the
  // order of the per-row loop, so both paths round identically.
  for (std::size_t c = 0; c < in_channels_; ++c) {
    float* out = grad_input + c * plane;
    for (std::size_t ki = 0; ki < kernel_; ++ki) {
      const Range rows = ValidTaps(ki, padding_, h, ho);
      for (std::size_t kj = 0; kj < kernel_; ++kj) {
        const Range cols = ValidTaps(kj, padding_, w, wo);
        float* srow = dcols + ((c * kernel_ + ki) * kernel_ + kj) * ld;
        if (same) {
          // Padding taps must add nothing, so they are zeroed (dcols is
          // dead after this pass) rather than masked: NaN·0 is NaN, while
          // x + 0 is x for every sum here (it starts at +0, never −0).
          ZeroPaddingTaps(srow, batch, h, w, rows, cols);
          const long shift = SpanShift(ki, kj, padding_, w);
          const Range span = SpanOverlap(shift, plane);
          if (span.hi > span.lo) {
            const float* s = srow + span.lo;
            float* o = out + (static_cast<long>(span.lo) + shift);
            for (std::size_t q = 0; q < span.hi - span.lo; ++q) {
              o[q] += s[q];
            }
          }
          continue;
        }
        if (cols.hi <= cols.lo) {
          continue;
        }
        for (std::size_t n = 0; n < batch; ++n) {
          for (std::size_t oi = rows.lo; oi < rows.hi; ++oi) {
            const float* s = srow + (n * ho + oi) * wo + cols.lo;
            float* o = out + (n * h + oi + ki - padding_) * w +
                       (cols.lo + kj - padding_);
            for (std::size_t j = 0; j < cols.hi - cols.lo; ++j) {
              o[j] += s[j];
            }
          }
        }
      }
    }
  }
}

tensor::Tensor Conv2d::Forward(const tensor::Tensor& input) {
  AF_CHECK_EQ(input.rank(), 4u);
  AF_CHECK_EQ(input.dim(0), in_channels_);
  const std::size_t batch = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  AF_CHECK_GE(h + 2 * padding_ + 1, kernel_ + 1) << "kernel larger than input";
  AF_CHECK_GE(w + 2 * padding_ + 1, kernel_ + 1) << "kernel larger than input";
  const std::size_t ho = OutExtent(h);
  const std::size_t wo = OutExtent(w);
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  const std::size_t ld = batch * ho * wo;

  input_shape_ = input.shape();

  // Whole-batch im2col into the reused arena: sample n owns columns
  // [n·Ho·Wo, (n+1)·Ho·Wo) of the (patch × N·Ho·Wo) matrix.
  if (cols_.size() < patch * ld) {
    cols_.resize(patch * ld);
  }
  Im2Col(input.data().data(), batch, h, w);

  // out (out × N·Ho·Wo) = W (out × patch) · cols (patch × N·Ho·Wo): one
  // GEMM for the whole batch, straight into the channel-major output.
  tensor::Tensor out({out_channels_, batch, ho, wo});
  float* po = out.data().data();
  tensor::Sgemm(tensor::Op::kNone, tensor::Op::kNone, out_channels_, ld, patch,
                weight_.data().data(), patch, cols_.data(), ld, po, ld);

  const float* pb = bias_.data().data();
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    float* row = po + oc * ld;
    const float b = pb[oc];
    for (std::size_t i = 0; i < ld; ++i) {
      row[i] += b;
    }
  }
  return out;
}

void Conv2d::AccumulateParamGrads(const tensor::Tensor& grad_output) {
  AF_CHECK_EQ(grad_output.rank(), 4u);
  AF_CHECK_EQ(input_shape_.size(), 4u) << "Backward before Forward";
  const std::size_t batch = input_shape_[1];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t ho = OutExtent(h);
  const std::size_t wo = OutExtent(w);
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  const std::size_t ld = batch * ho * wo;
  AF_CHECK_EQ(grad_output.dim(0), out_channels_);
  AF_CHECK_EQ(grad_output.dim(1), batch);
  AF_CHECK_EQ(grad_output.dim(2), ho);
  AF_CHECK_EQ(grad_output.dim(3), wo);
  const float* pg = grad_output.data().data();

  // Bias gradient: per-channel sum of the gradient maps (double
  // accumulation, ascending sample-major order). Up to kChains channels
  // are summed side by side, so their independent add chains overlap
  // instead of each waiting out its own add latency; every chain keeps
  // its order.
  constexpr std::size_t kChains = 8;
  for (std::size_t oc0 = 0; oc0 < out_channels_; oc0 += kChains) {
    const std::size_t count = std::min(kChains, out_channels_ - oc0);
    const float* rows = pg + oc0 * ld;
    double gb[kChains] = {};
    for (std::size_t i = 0; i < ld; ++i) {
      for (std::size_t c = 0; c < count; ++c) {
        gb[c] += rows[c * ld + i];
      }
    }
    for (std::size_t c = 0; c < count; ++c) {
      grad_bias_[oc0 + c] += static_cast<float>(gb[c]);
    }
  }

  // cols_ still holds the forward pass's im2col of the input — the arena
  // doubles as the cached patch matrix, so backward re-runs no im2col.

  // dW (out × patch) += grad_output · colsᵀ, accumulated in place.
  tensor::Sgemm(tensor::Op::kNone, tensor::Op::kTranspose, out_channels_,
                patch, ld, pg, ld, cols_.data(), ld,
                grad_weight_.data().data(), patch, nullptr, 1.0f);
}

void Conv2d::BackwardParamsOnly(const tensor::Tensor& grad_output) {
  AccumulateParamGrads(grad_output);
}

tensor::Tensor Conv2d::Backward(const tensor::Tensor& grad_output) {
  AccumulateParamGrads(grad_output);
  const std::size_t batch = input_shape_[1];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  const std::size_t ld = batch * OutExtent(h) * OutExtent(w);

  // dcols (patch × N·Ho·Wo) = Wᵀ · grad_output. The patch gradients are
  // dead once Col2Im returns, so every Conv2d on a thread shares one
  // grow-only scratch instead of each model keeping its own.
  thread_local std::vector<float> dcols;
  if (dcols.size() < patch * ld) {
    dcols.resize(patch * ld);
  }
  tensor::Sgemm(tensor::Op::kTranspose, tensor::Op::kNone, patch, ld,
                out_channels_, weight_.data().data(), patch,
                grad_output.data().data(), ld, dcols.data(), ld);

  tensor::Tensor grad_input(input_shape_);
  Col2Im(dcols.data(), batch, h, w, grad_input.data().data());
  return grad_input;
}

}  // namespace nn
