#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "tensor/gemm.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace nn {
namespace {

// Runs body(n) for every sample in the batch, fanned out over the shared
// compute pool when one is installed (tensor::SetComputePool). Every body
// writes a disjoint slice, so the fan-out is deterministic.
void ForEachSample(std::size_t batch,
                   const std::function<void(std::size_t)>& body) {
  util::ThreadPool* pool = tensor::ComputePool();
  if (pool != nullptr && batch > 1) {
    pool->ParallelFor(batch, body);
  } else {
    for (std::size_t n = 0; n < batch; ++n) {
      body(n);
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

void Conv2d::Im2ColSample(const tensor::Tensor& input, std::size_t n,
                          std::size_t h, std::size_t w, float* dst,
                          std::size_t ld) const {
  const std::size_t ho = h + 2 * padding_ - kernel_ + 1;
  const std::size_t wo = w + 2 * padding_ - kernel_ + 1;
  const float* in = input.data().data();
  const long pad = static_cast<long>(padding_);
  for (std::size_t c = 0; c < in_channels_; ++c) {
    for (std::size_t ki = 0; ki < kernel_; ++ki) {
      for (std::size_t kj = 0; kj < kernel_; ++kj) {
        const std::size_t row = (c * kernel_ + ki) * kernel_ + kj;
        float* drow = dst + row * ld;
        // Valid output columns: 0 <= oj + kj - pad < w. Out-of-range
        // positions are padding and get explicit zeros (the arena is
        // reused, so every position must be written).
        const long lo = std::max(0L, pad - static_cast<long>(kj));
        const long hi = std::min(static_cast<long>(wo),
                                 static_cast<long>(w) + pad -
                                     static_cast<long>(kj));
        for (std::size_t oi = 0; oi < ho; ++oi) {
          float* d = drow + oi * wo;
          const long ii = static_cast<long>(oi + ki) - pad;
          if (ii < 0 || ii >= static_cast<long>(h) || hi <= lo) {
            std::fill(d, d + wo, 0.0f);
            continue;
          }
          std::fill(d, d + lo, 0.0f);
          const float* s =
              in + ((n * in_channels_ + c) * h + static_cast<std::size_t>(ii)) *
                       w +
              static_cast<std::size_t>(lo + static_cast<long>(kj) - pad);
          std::memcpy(d + lo, s,
                      static_cast<std::size_t>(hi - lo) * sizeof(float));
          std::fill(d + hi, d + wo, 0.0f);
        }
      }
    }
  }
}

void Conv2d::Col2ImSample(const float* src, std::size_t ld, std::size_t n,
                          std::size_t h, std::size_t w,
                          tensor::Tensor& grad_input) const {
  const std::size_t ho = h + 2 * padding_ - kernel_ + 1;
  const std::size_t wo = w + 2 * padding_ - kernel_ + 1;
  float* out = grad_input.data().data();
  const long pad = static_cast<long>(padding_);
  for (std::size_t c = 0; c < in_channels_; ++c) {
    for (std::size_t ki = 0; ki < kernel_; ++ki) {
      for (std::size_t kj = 0; kj < kernel_; ++kj) {
        const std::size_t row = (c * kernel_ + ki) * kernel_ + kj;
        const float* srow = src + row * ld;
        const long lo = std::max(0L, pad - static_cast<long>(kj));
        const long hi = std::min(static_cast<long>(wo),
                                 static_cast<long>(w) + pad -
                                     static_cast<long>(kj));
        if (hi <= lo) {
          continue;
        }
        for (std::size_t oi = 0; oi < ho; ++oi) {
          const long ii = static_cast<long>(oi + ki) - pad;
          if (ii < 0 || ii >= static_cast<long>(h)) {
            continue;
          }
          const float* s = srow + oi * wo;
          float* o =
              out +
              ((n * in_channels_ + c) * h + static_cast<std::size_t>(ii)) * w +
              static_cast<std::size_t>(lo + static_cast<long>(kj) - pad);
          for (long oj = lo; oj < hi; ++oj) {
            o[oj - lo] += s[oj];
          }
        }
      }
    }
  }
}

tensor::Tensor Conv2d::Forward(const tensor::Tensor& input) {
  AF_CHECK_EQ(input.rank(), 4u);
  AF_CHECK_EQ(input.dim(1), in_channels_);
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  AF_CHECK_GE(h + 2 * padding_ + 1, kernel_ + 1) << "kernel larger than input";
  const std::size_t ho = h + 2 * padding_ - kernel_ + 1;
  const std::size_t wo = w + 2 * padding_ - kernel_ + 1;
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  const std::size_t howo = ho * wo;
  const std::size_t ld = batch * howo;

  input_shape_ = input.shape();

  // Whole-batch im2col into the reused arena: sample n owns columns
  // [n·howo, (n+1)·howo) of the (patch × N·Ho·Wo) matrix.
  if (cols_.size() < patch * ld) {
    cols_.resize(patch * ld);
  }
  ForEachSample(batch, [&](std::size_t n) {
    Im2ColSample(input, n, h, w, cols_.data() + n * howo, ld);
  });

  // out_flat (out × N·Ho·Wo) = W (out × patch) · cols (patch × N·Ho·Wo):
  // one GEMM for the whole batch.
  if (out_flat_.size() < out_channels_ * ld) {
    out_flat_.resize(out_channels_ * ld);
  }
  tensor::Sgemm(tensor::Op::kNone, tensor::Op::kNone, out_channels_, ld, patch,
                weight_.data().data(), patch, cols_.data(), ld,
                out_flat_.data(), ld, nullptr, 0.0f, tensor::ComputePool());

  // Scatter channel-major GEMM output into NCHW and add the channel bias.
  tensor::Tensor out({batch, out_channels_, ho, wo});
  float* po = out.data().data();
  const float* pb = bias_.data().data();
  ForEachSample(batch, [&](std::size_t n) {
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const float* s = out_flat_.data() + oc * ld + n * howo;
      float* d = po + (n * out_channels_ + oc) * howo;
      const float b = pb[oc];
      for (std::size_t px = 0; px < howo; ++px) {
        d[px] = s[px] + b;
      }
    }
  });
  return out;
}

tensor::Tensor Conv2d::Backward(const tensor::Tensor& grad_output) {
  AF_CHECK_EQ(grad_output.rank(), 4u);
  AF_CHECK_EQ(input_shape_.size(), 4u) << "Backward before Forward";
  const std::size_t batch = input_shape_[0];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t ho = h + 2 * padding_ - kernel_ + 1;
  const std::size_t wo = w + 2 * padding_ - kernel_ + 1;
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  const std::size_t howo = ho * wo;
  const std::size_t ld = batch * howo;
  AF_CHECK_EQ(grad_output.dim(0), batch);
  AF_CHECK_EQ(grad_output.dim(1), out_channels_);
  AF_CHECK_EQ(grad_output.dim(2), ho);
  AF_CHECK_EQ(grad_output.dim(3), wo);

  // Gather NCHW gradients into the channel-major layout the GEMMs need.
  if (gout_flat_.size() < out_channels_ * ld) {
    gout_flat_.resize(out_channels_ * ld);
  }
  const float* pg = grad_output.data().data();
  ForEachSample(batch, [&](std::size_t n) {
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      std::memcpy(gout_flat_.data() + oc * ld + n * howo,
                  pg + (n * out_channels_ + oc) * howo, howo * sizeof(float));
    }
  });

  // Bias gradient: per-channel sum of the gradient maps (double
  // accumulation, ascending sample-major order).
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    const float* row = gout_flat_.data() + oc * ld;
    double gb = 0.0;
    for (std::size_t i = 0; i < ld; ++i) {
      gb += row[i];
    }
    grad_bias_[oc] += static_cast<float>(gb);
  }

  // cols_ still holds the forward pass's im2col of the input — the arena
  // doubles as the cached patch matrix, so backward re-runs no im2col.

  // dW (out × patch) += gout_flat · colsᵀ, accumulated in place.
  tensor::Sgemm(tensor::Op::kNone, tensor::Op::kTranspose, out_channels_,
                patch, ld, gout_flat_.data(), ld, cols_.data(), ld,
                grad_weight_.data().data(), patch, nullptr, 1.0f,
                tensor::ComputePool());

  // dcols (patch × N·Ho·Wo) = Wᵀ · gout_flat.
  if (dcols_.size() < patch * ld) {
    dcols_.resize(patch * ld);
  }
  tensor::Sgemm(tensor::Op::kTranspose, tensor::Op::kNone, patch, ld,
                out_channels_, weight_.data().data(), patch, gout_flat_.data(),
                ld, dcols_.data(), ld, nullptr, 0.0f, tensor::ComputePool());

  // dX: scatter the patch gradients back per sample (disjoint images).
  tensor::Tensor grad_input(input_shape_);
  ForEachSample(batch, [&](std::size_t n) {
    Col2ImSample(dcols_.data() + n * howo, ld, n, h, w, grad_input);
  });
  return grad_input;
}

}  // namespace nn
