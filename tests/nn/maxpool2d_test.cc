#include "nn/maxpool2d.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/check.h"

namespace nn {
namespace {

TEST(MaxPool2dTest, SelectsWindowMaxima) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 4}, {1, 5, 2, 0,
                                   3, 4, 8, 7});
  tensor::Tensor out = pool.Forward(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
}

TEST(MaxPool2dTest, OutputShapeHalves) {
  MaxPool2d pool(2);
  tensor::Tensor in({3, 2, 8, 8});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_EQ(out.dim(0), 3u);
  EXPECT_EQ(out.dim(1), 2u);
  EXPECT_EQ(out.dim(2), 4u);
  EXPECT_EQ(out.dim(3), 4u);
}

TEST(MaxPool2dTest, BackwardRoutesGradientToArgmax) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {1, 9, 3, 2});
  pool.Forward(in);
  tensor::Tensor grad_out({1, 1, 1, 1}, {2.5f});
  tensor::Tensor grad_in = pool.Backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 2.5f);  // the max cell
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[3], 0.0f);
}

TEST(MaxPool2dTest, TiesGoToFirstScanned) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {4, 4, 4, 4});
  pool.Forward(in);
  tensor::Tensor grad_out({1, 1, 1, 1}, {1.0f});
  tensor::Tensor grad_in = pool.Backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 1.0f);
  EXPECT_FLOAT_EQ(grad_in[1] + grad_in[2] + grad_in[3], 0.0f);
}

TEST(MaxPool2dTest, NonDivisibleInputThrows) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 3, 4});
  EXPECT_THROW(pool.Forward(in), util::CheckError);
}

TEST(MaxPool2dTest, NegativeInputsHandled) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {-5, -1, -3, -2});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
}

TEST(MaxPool2dTest, TieAfterFirstElementGoesToFirstScanned) {
  MaxPool2d pool(2);
  // Row-major scan: (0,0)=1, (0,1)=5, (1,0)=5, (1,1)=5.
  tensor::Tensor in({1, 1, 2, 2}, {1, 5, 5, 5});
  pool.Forward(in);
  tensor::Tensor grad_in = pool.Backward(tensor::Tensor({1, 1, 1, 1}, {1.0f}));
  EXPECT_EQ(grad_in[1], 1.0f);
  EXPECT_EQ(grad_in[0] + grad_in[2] + grad_in[3], 0.0f);
}

TEST(MaxPool2dTest, SignedZeroTieKeepsFirstScanned) {
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {-0.0f, 0.0f, -1.0f, -2.0f});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_TRUE(std::signbit(out[0])) << "+0.0 does not beat -0.0 under >";
  tensor::Tensor grad_in = pool.Backward(tensor::Tensor({1, 1, 1, 1}, {3.0f}));
  EXPECT_EQ(grad_in[0], 3.0f);
  EXPECT_EQ(grad_in[1], 0.0f);
}

TEST(MaxPool2dTest, NaNNeverWins) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool(2);
  tensor::Tensor in({1, 1, 2, 2}, {nan, 1.0f, 2.0f, nan});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_EQ(out[0], 2.0f);
  tensor::Tensor grad_in = pool.Backward(tensor::Tensor({1, 1, 1, 1}, {1.0f}));
  EXPECT_EQ(grad_in[2], 1.0f);
  EXPECT_EQ(grad_in[0] + grad_in[1] + grad_in[3], 0.0f);
}

// A window with nothing above -inf (all -inf or NaN) outputs -inf and sends
// its gradient to its own first element — not to element 0 of the batch.
TEST(MaxPool2dTest, DegenerateWindowRoutesGradientToItsFirstElement) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool(2);
  // Two samples of one 2x4 plane; sample 1's second window is degenerate.
  tensor::Tensor in({2, 1, 2, 4}, {1, 9, 4, 0,      //
                                   3, 2, 8, 7,      //
                                   5, 6, -inf, nan, //
                                   7, 1, nan, -inf});
  tensor::Tensor out = pool.Forward(in);
  EXPECT_EQ(out[3], -inf);
  tensor::Tensor grad_in =
      pool.Backward(tensor::Tensor({2, 1, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f}));
  EXPECT_EQ(grad_in[0], 0.0f);
  EXPECT_EQ(grad_in[1], 1.0f);
  EXPECT_EQ(grad_in[6], 2.0f);
  EXPECT_EQ(grad_in[12], 3.0f);
  EXPECT_EQ(grad_in[10], 4.0f) << "first element of the degenerate window";
  float total = 0.0f;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    total += grad_in[i];
  }
  EXPECT_EQ(total, 10.0f);
}

TEST(MaxPool2dTest, WiderWindowScansRowMajor) {
  MaxPool2d pool(3);
  // One 3x6 plane: two 3x3 windows.
  tensor::Tensor in({1, 1, 3, 6}, {0, 1, 2, 9, 9, 0,  //
                                   3, 8, 4, 0, 1, 2,  //
                                   5, 6, 8, 9, 3, 4});
  tensor::Tensor out = pool.Forward(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 8.0f);
  EXPECT_EQ(out[1], 9.0f);
  tensor::Tensor grad_in =
      pool.Backward(tensor::Tensor({1, 1, 1, 2}, {1.0f, 2.0f}));
  EXPECT_EQ(grad_in[7], 1.0f);   // (1,1): the first 8 scanned
  EXPECT_EQ(grad_in[14], 0.0f);  // (2,2): tied 8, scanned later
  EXPECT_EQ(grad_in[3], 2.0f);   // (0,3): the first 9 scanned
}

TEST(MaxPool2dTest, BackwardBeforeForwardThrows) {
  MaxPool2d pool(2);
  EXPECT_THROW(pool.Backward(tensor::Tensor({0, 1, 1, 1})), util::CheckError);
}

TEST(MaxPool2dTest, WindowOffsetMustFitOneByte) {
  EXPECT_NO_THROW(MaxPool2d(16));
  EXPECT_THROW(MaxPool2d(17), util::CheckError);
}

}  // namespace
}  // namespace nn
