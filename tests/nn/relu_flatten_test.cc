#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "nn/flatten.h"
#include "nn/relu.h"
#include "util/check.h"

namespace nn {
namespace {

TEST(ReLUTest, ClampsNegativesToZero) {
  ReLU relu;
  tensor::Tensor in({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  tensor::Tensor out = relu.Forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  tensor::Tensor in({1, 3}, {-1.0f, 0.5f, 0.0f});
  relu.Forward(in);
  tensor::Tensor grad_out({1, 3}, {10.0f, 10.0f, 10.0f});
  tensor::Tensor grad_in = relu.Backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 10.0f);
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);  // gradient at exactly 0 is 0
}

TEST(ReLUTest, HasNoParameters) {
  ReLU relu;
  EXPECT_TRUE(relu.Params().empty());
  EXPECT_TRUE(relu.Grads().empty());
}

TEST(ReLUTest, NaNPassesThroughBothWays) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ReLU relu;
  tensor::Tensor out = relu.Forward(tensor::Tensor({1, 1}, {nan}));
  EXPECT_TRUE(std::isnan(out[0]));
  tensor::Tensor grad_in = relu.Backward(tensor::Tensor({1, 1}, {7.0f}));
  EXPECT_EQ(grad_in[0], 7.0f);
}

TEST(ReLUTest, NegativeZeroStaysAndBlocksGradient) {
  ReLU relu;
  tensor::Tensor out = relu.Forward(tensor::Tensor({1, 2}, {-0.0f, 0.0f}));
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_TRUE(std::signbit(out[0]));
  EXPECT_FALSE(std::signbit(out[1]));
  tensor::Tensor grad_in = relu.Backward(tensor::Tensor({1, 2}, {5.0f, 5.0f}));
  EXPECT_EQ(grad_in[0], 0.0f);
  EXPECT_EQ(grad_in[1], 0.0f);
}

TEST(ReLUTest, BlockedGradientIsZeroEvenWhenNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ReLU relu;
  relu.Forward(tensor::Tensor({1, 2}, {-1.0f, 1.0f}));
  tensor::Tensor grad_in = relu.Backward(tensor::Tensor({1, 2}, {nan, nan}));
  EXPECT_EQ(grad_in[0], 0.0f);
  EXPECT_FALSE(std::signbit(grad_in[0]));
  EXPECT_TRUE(std::isnan(grad_in[1]));
}

// The branch-free passes against the plain conditional definition, bit for
// bit, on inputs salted with zeros of both signs, infinities and NaN.
TEST(ReLUTest, MatchesConditionalDefinitionBitwise) {
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  std::mt19937_64 rng(5);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  std::uniform_int_distribution<int> pick(0, 9);
  tensor::Tensor in({3, 4, 5, 7});
  tensor::Tensor grad({3, 4, 5, 7});
  for (std::size_t i = 0; i < in.size(); ++i) {
    const int p = pick(rng);
    in[i] = p < 5 ? specials[p] : normal(rng);
    grad[i] = pick(rng) == 0 ? -0.0f : normal(rng);
  }
  ReLU relu;
  tensor::Tensor out = relu.Forward(in);
  tensor::Tensor grad_in = relu.Backward(grad);
  ASSERT_EQ(out.shape(), in.shape());
  ASSERT_EQ(grad_in.shape(), in.shape());
  for (std::size_t i = 0; i < in.size(); ++i) {
    float expect_out = in[i];
    if (expect_out < 0.0f) {
      expect_out = 0.0f;
    }
    float expect_grad = grad[i];
    if (in[i] <= 0.0f) {
      expect_grad = 0.0f;
    }
    ASSERT_EQ(std::memcmp(&out[i], &expect_out, sizeof(float)), 0) << i;
    ASSERT_EQ(std::memcmp(&grad_in[i], &expect_grad, sizeof(float)), 0) << i;
  }
}

TEST(ReLUTest, BackwardShapeMismatchThrows) {
  ReLU relu;
  relu.Forward(tensor::Tensor({1, 3}));
  EXPECT_THROW(relu.Backward(tensor::Tensor({1, 4})), util::CheckError);
}

TEST(FlattenTest, CollapsesTrailingDims) {
  Flatten flatten;
  tensor::Tensor in({3, 2, 4, 4});  // {C, N, H, W}
  tensor::Tensor out = flatten.Forward(in);
  EXPECT_EQ(out.rank(), 2u);
  EXPECT_EQ(out.dim(0), 2u);
  EXPECT_EQ(out.dim(1), 48u);
}

TEST(FlattenTest, BackwardRestoresShape) {
  Flatten flatten;
  tensor::Tensor in({2, 3, 2, 2});  // C = 2, N = 3
  flatten.Forward(in);
  tensor::Tensor grad_out({3, 8});
  tensor::Tensor grad_in = flatten.Backward(grad_out);
  EXPECT_EQ(grad_in.shape(), in.shape());
}

TEST(FlattenTest, DataOrderPreserved) {
  // Channel-major in ({C=2, N=2, 1, 2}), per-sample channels out.
  Flatten flatten;
  tensor::Tensor in({2, 2, 1, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  tensor::Tensor out = flatten.Forward(in);
  ASSERT_EQ(out.shape(), (tensor::Shape{2, 4}));
  const float expected[] = {1, 2, 5, 6, 3, 4, 7, 8};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(out[i], expected[i]) << i;
  }
}

TEST(FlattenTest, RoundTripsChannelMajorLayout) {
  // Feature c·H·W + i·W + j of sample n is element (c, n, i, j), and
  // backward is the exact inverse.
  std::mt19937_64 rng(9);
  tensor::Tensor in({3, 5, 2, 4});
  in.FillNormal(0.0f, 1.0f, rng);
  Flatten flatten;
  tensor::Tensor out = flatten.Forward(in);
  ASSERT_EQ(out.shape(), (tensor::Shape{5, 24}));
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t n = 0; n < 5; ++n) {
      for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
          EXPECT_EQ(out.At(n, c * 8 + i * 4 + j), in.At(c, n, i, j));
        }
      }
    }
  }
  tensor::Tensor back = flatten.Backward(out);
  ASSERT_EQ(back.shape(), in.shape());
  EXPECT_EQ(back.vec(), in.vec());
}

TEST(FlattenTest, RejectsNonImageInput) {
  Flatten flatten;
  EXPECT_THROW(flatten.Forward(tensor::Tensor({2, 6})), util::CheckError);
}

}  // namespace
}  // namespace nn
