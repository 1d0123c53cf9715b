#include "nn/conv2d.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace nn {
namespace {

std::mt19937_64 Rng(std::uint64_t seed = 1) {
  return util::RngFactory(seed).Stream("test");
}

TEST(Conv2dTest, OutputShapeWithPadding) {
  auto rng = Rng();
  Conv2d conv(1, 4, 3, 1, rng);
  tensor::Tensor in({1, 2, 8, 8});  // {C, N, H, W}
  tensor::Tensor out = conv.Forward(in);
  EXPECT_EQ(out.dim(0), 4u);  // output channels lead
  EXPECT_EQ(out.dim(1), 2u);
  EXPECT_EQ(out.dim(2), 8u);  // same padding
  EXPECT_EQ(out.dim(3), 8u);
}

TEST(Conv2dTest, OutputShapeWithoutPadding) {
  auto rng = Rng();
  Conv2d conv(1, 2, 3, 0, rng);
  tensor::Tensor in({1, 1, 5, 5});
  tensor::Tensor out = conv.Forward(in);
  EXPECT_EQ(out.dim(2), 3u);
  EXPECT_EQ(out.dim(3), 3u);
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 1, rng);
  // Kernel = delta at centre, bias = 0.
  conv.Params()[0]->Fill(0.0f);
  (*conv.Params()[0])[4] = 1.0f;  // centre of 3×3
  conv.Params()[1]->Fill(0.0f);
  tensor::Tensor in({1, 1, 4, 4});
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(i);
  }
  tensor::Tensor out = conv.Forward(in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], in[i]);
  }
}

TEST(Conv2dTest, AveragingKernelComputesLocalMean) {
  auto rng = Rng();
  Conv2d conv(1, 1, 3, 0, rng);
  conv.Params()[0]->Fill(1.0f / 9.0f);
  conv.Params()[1]->Fill(0.0f);
  tensor::Tensor in({1, 1, 3, 3});
  in.Fill(2.0f);
  tensor::Tensor out = conv.Forward(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], 2.0f, 1e-6);
}

TEST(Conv2dTest, BiasIsAddedPerChannel) {
  auto rng = Rng();
  Conv2d conv(1, 2, 1, 0, rng);
  conv.Params()[0]->Fill(0.0f);
  (*conv.Params()[1])[0] = 1.5f;
  (*conv.Params()[1])[1] = -2.5f;
  tensor::Tensor in({1, 1, 2, 2});
  tensor::Tensor out = conv.Forward(in);
  ASSERT_EQ(out.shape(), (tensor::Shape{2, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.At(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(out.At(1, 0, 1, 1), -2.5f);
}

TEST(Conv2dTest, BackwardReturnsInputShapedGradient) {
  auto rng = Rng();
  Conv2d conv(2, 3, 3, 1, rng);
  tensor::Tensor in({2, 5, 4, 4});  // C != N, so the layout is visible
  in.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor out = conv.Forward(in);
  EXPECT_EQ(out.shape(), (tensor::Shape{3, 5, 4, 4}));
  tensor::Tensor grad_out(out.shape());
  grad_out.Fill(1.0f);
  tensor::Tensor grad_in = conv.Backward(grad_out);
  EXPECT_EQ(grad_in.shape(), in.shape());
}

TEST(Conv2dTest, BiasGradientIsSumOfOutputGradients) {
  auto rng = Rng();
  Conv2d conv(1, 2, 3, 1, rng);
  tensor::Tensor in({1, 3, 4, 4});
  conv.Forward(in);
  tensor::Tensor grad_out({2, 3, 4, 4});
  // Channel 0's maps (the first 3·16 floats) get 0.5, channel 1's 0.25.
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_out[i] = i < 48 ? 0.5f : 0.25f;
  }
  conv.Backward(grad_out);
  EXPECT_NEAR((*conv.Grads()[1])[0], 24.0f, 1e-5);  // 48 cells × 0.5
  EXPECT_NEAR((*conv.Grads()[1])[1], 12.0f, 1e-5);  // 48 cells × 0.25
}

TEST(Conv2dTest, OneByOneConvEqualsPerPixelDense) {
  // A 1×1 convolution is a Dense layer applied at every pixel; verify the
  // two implementations agree on shared weights.
  auto rng = Rng(5);
  Conv2d conv(3, 2, 1, 0, rng);
  tensor::Tensor in({3, 2, 2, 2});  // {C, N, H, W}
  in.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor out = conv.Forward(in);
  ASSERT_EQ(out.shape(), (tensor::Shape{2, 2, 2, 2}));
  const auto& w = conv.Params()[0]->vec();   // (2, 3, 1, 1)
  const auto& b = conv.Params()[1]->vec();   // (2)
  for (std::size_t oc = 0; oc < 2; ++oc) {
    for (std::size_t n = 0; n < 2; ++n) {
      for (std::size_t px = 0; px < 4; ++px) {
        float expected = b[oc];
        for (std::size_t ic = 0; ic < 3; ++ic) {
          expected += w[oc * 3 + ic] * in[(ic * 2 + n) * 4 + px];
        }
        EXPECT_NEAR(out[(oc * 2 + n) * 4 + px], expected, 1e-5);
      }
    }
  }
}

TEST(Conv2dTest, TranslationEquivariance) {
  // Shifting the input by one pixel shifts the (interior of the) output by
  // the same amount — the defining property of a convolution.
  auto rng = Rng(6);
  Conv2d conv(1, 1, 3, 1, rng);
  tensor::Tensor a({1, 1, 6, 6});
  a.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor b({1, 1, 6, 6});
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j + 1 < 6; ++j) {
      b.At(0, 0, i, j + 1) = a.At(0, 0, i, j);
    }
  }
  tensor::Tensor oa = conv.Forward(a);
  tensor::Tensor ob = conv.Forward(b);
  for (std::size_t i = 1; i + 1 < 6; ++i) {
    for (std::size_t j = 1; j + 2 < 6; ++j) {
      EXPECT_NEAR(ob.At(0, 0, i, j + 1), oa.At(0, 0, i, j), 1e-5);
    }
  }
}

// ---- Direct-loop reference ------------------------------------------------

struct ConvCase {
  const char* name;
  std::size_t in_channels, out_channels, kernel, padding;
  std::size_t batch, h, w;
};

void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

// A reference value plus the sum of its terms' magnitudes: float
// accumulation error scales with the latter, so it is the scale the
// relative tolerance is taken against.
struct Ref {
  std::vector<double> value;
  std::vector<double> scale;
};

// Whether input position (i, j) lies inside the image; outside it is a
// padding tap, which reads zero.
bool Tap(const ConvCase& c, long i, long j) {
  return i >= 0 && j >= 0 && i < static_cast<long>(c.h) &&
         j < static_cast<long>(c.w);
}

std::size_t Ho(const ConvCase& c) { return c.h + 2 * c.padding - c.kernel + 1; }
std::size_t Wo(const ConvCase& c) { return c.w + 2 * c.padding - c.kernel + 1; }

void Add(Ref& ref, std::size_t at, double term) {
  ref.value[at] += term;
  ref.scale[at] += std::abs(term);
}

// Forward, dW, db and dX of a stride-1 convolution by direct summation over
// the definition, in double.
struct ConvRef {
  Ref out, dw, db, dx;
};

ConvRef Reference(const ConvCase& c, const tensor::Tensor& x,
                  const tensor::Tensor& weight, const tensor::Tensor& bias,
                  const tensor::Tensor& g) {
  const std::size_t ho = Ho(c), wo = Wo(c), k = c.kernel;
  const long pad = static_cast<long>(c.padding);
  ConvRef r;
  auto sized = [](std::size_t n) {
    return Ref{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
  };
  r.out = sized(c.out_channels * c.batch * ho * wo);
  r.dw = sized(weight.size());
  r.db = sized(bias.size());
  r.dx = sized(x.size());
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t n = 0; n < c.batch; ++n) {
      for (std::size_t oi = 0; oi < ho; ++oi) {
        for (std::size_t oj = 0; oj < wo; ++oj) {
          const std::size_t o = ((oc * c.batch + n) * ho + oi) * wo + oj;
          Add(r.out, o, bias[oc]);
          Add(r.db, oc, g[o]);
          for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
            for (std::size_t ki = 0; ki < k; ++ki) {
              for (std::size_t kj = 0; kj < k; ++kj) {
                const long i = static_cast<long>(oi + ki) - pad;
                const long j = static_cast<long>(oj + kj) - pad;
                if (!Tap(c, i, j)) {
                  continue;
                }
                const std::size_t xi =
                    ((ic * c.batch + n) * c.h + static_cast<std::size_t>(i)) *
                        c.w +
                    static_cast<std::size_t>(j);
                const std::size_t wi =
                    ((oc * c.in_channels + ic) * k + ki) * k + kj;
                Add(r.out, o, static_cast<double>(weight[wi]) * x[xi]);
                Add(r.dw, wi, static_cast<double>(g[o]) * x[xi]);
                Add(r.dx, xi, static_cast<double>(weight[wi]) * g[o]);
              }
            }
          }
        }
      }
    }
  }
  return r;
}

// |actual − ref| <= 1e-5 · (sum of the terms' magnitudes). NaN must meet
// NaN.
void ExpectClose(const char* what, const tensor::Tensor& actual,
                 const Ref& ref) {
  ASSERT_EQ(actual.size(), ref.value.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::isnan(ref.value[i])) {
      EXPECT_TRUE(std::isnan(actual[i])) << what << "[" << i << "]";
      continue;
    }
    EXPECT_LE(std::abs(actual[i] - ref.value[i]), 1e-5 * ref.scale[i])
        << what << "[" << i << "] = " << actual[i] << ", reference "
        << ref.value[i];
  }
}

// Runs Forward + Backward on `conv` for case `c` and checks every output
// against the direct reference. Gradients are zeroed first.
void CheckAgainstReference(Conv2d& conv, const ConvCase& c,
                           std::mt19937_64& rng) {
  tensor::Tensor x({c.in_channels, c.batch, c.h, c.w});
  x.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor g({c.out_channels, c.batch, Ho(c), Wo(c)});
  g.FillNormal(0.0f, 1.0f, rng);
  conv.Params()[1]->FillNormal(0.0f, 1.0f, rng);  // a nonzero bias
  conv.ZeroGrads();

  tensor::Tensor out = conv.Forward(x);
  ASSERT_EQ(out.shape(), g.shape());
  tensor::Tensor dx = conv.Backward(g);
  ASSERT_EQ(dx.shape(), x.shape());

  const ConvRef ref =
      Reference(c, x, *conv.Params()[0], *conv.Params()[1], g);
  ExpectClose("out", out, ref.out);
  ExpectClose("dW", *conv.Grads()[0], ref.dw);
  ExpectClose("db", *conv.Grads()[1], ref.db);
  ExpectClose("dX", dx, ref.dx);
}

class Conv2dReferenceTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dReferenceTest, MatchesDirectLoops) {
  const ConvCase c = GetParam();
  auto rng = Rng(21);
  Conv2d conv(c.in_channels, c.out_channels, c.kernel, c.padding, rng);
  CheckAgainstReference(conv, c, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dReferenceTest,
    ::testing::Values(
        ConvCase{"k3p1", 2, 3, 3, 1, 4, 5, 5},
        ConvCase{"k3p0", 2, 3, 3, 0, 3, 6, 6},
        ConvCase{"k1p0", 3, 2, 1, 0, 2, 4, 4},
        ConvCase{"k5p2", 2, 2, 5, 2, 3, 6, 6},
        // N == C: a layout mix-up keeps every dim the same here.
        ConvCase{"NequalsC", 6, 4, 3, 1, 6, 5, 5},
        // H != W through the shifted-span path and the row path.
        ConvCase{"k3p1_h4w7", 2, 3, 3, 1, 2, 4, 7},
        ConvCase{"k3p0_h7w4", 2, 3, 3, 0, 2, 7, 4},
        // Padding wider than same: the output grows past the input.
        ConvCase{"k3p2", 1, 2, 3, 2, 2, 4, 5}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return std::string(info.param.name);
    });

TEST(Conv2dTest, RaggedBatchReusesArenasCorrectly) {
  // A training epoch ends on a short batch: the grow-only arenas then hold
  // stale columns past the live ones, which must not leak into results.
  auto rng = Rng(22);
  Conv2d conv(3, 4, 3, 1, rng);
  for (std::size_t batch : {8u, 3u, 5u}) {
    SCOPED_TRACE(batch);
    CheckAgainstReference(conv, ConvCase{"ragged", 3, 4, 3, 1, batch, 6, 6},
                          rng);
  }
}

TEST(Conv2dTest, NaNGradientReachesOnlyItsReceptiveField) {
  // Sample 1's top-left output gradient is NaN. Its shifted span partners
  // in the neighbouring image (sample 0's last row and column) are padding
  // taps, which must add nothing, so dX is NaN exactly where the reference
  // says.
  const ConvCase c{"nan", 2, 2, 3, 1, 3, 4, 4};
  auto rng = Rng(23);
  Conv2d conv(c.in_channels, c.out_channels, c.kernel, c.padding, rng);
  tensor::Tensor x({c.in_channels, c.batch, c.h, c.w});
  x.FillNormal(0.0f, 1.0f, rng);
  tensor::Tensor g({c.out_channels, c.batch, c.h, c.w});
  g.FillNormal(0.0f, 1.0f, rng);
  g.At(0, 1, 0, 0) = std::numeric_limits<float>::quiet_NaN();
  conv.Forward(x);
  tensor::Tensor dx = conv.Backward(g);
  const ConvRef ref =
      Reference(c, x, *conv.Params()[0], *conv.Params()[1], g);
  std::size_t nans = 0;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    EXPECT_EQ(std::isnan(dx[i]), std::isnan(ref.dx.value[i])) << i;
    nans += std::isnan(dx[i]) ? 1 : 0;
  }
  EXPECT_EQ(nans, 2u * 4u);  // 2×2 receptive-field corner, both channels
}

TEST(Conv2dTest, BackwardParamsOnlyMatchesBackwardBitwise) {
  auto rng_a = Rng(24);
  auto rng_b = Rng(24);
  Conv2d full(3, 5, 3, 1, rng_a);
  Conv2d params_only(3, 5, 3, 1, rng_b);
  auto rng = Rng(25);
  for (int step = 0; step < 2; ++step) {  // gradients accumulate (+=)
    tensor::Tensor x({3, 4, 6, 5});
    x.FillNormal(0.0f, 1.0f, rng);
    tensor::Tensor g({5, 4, 6, 5});
    g.FillNormal(0.0f, 1.0f, rng);
    full.Forward(x);
    params_only.Forward(x);
    full.Backward(g);
    params_only.BackwardParamsOnly(g);
  }
  for (std::size_t p = 0; p < 2; ++p) {
    const tensor::Tensor& a = *full.Grads()[p];
    const tensor::Tensor& b = *params_only.Grads()[p];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.size() * sizeof(float)),
              0)
        << "gradient " << p;
  }
}

TEST(Conv2dTest, BatchFirstInputIsRejected) {
  // {N, C, H, W} with N != C fails the channel check instead of silently
  // convolving the wrong axis.
  auto rng = Rng();
  Conv2d conv(1, 2, 3, 1, rng);
  EXPECT_THROW(conv.Forward(tensor::Tensor({4, 1, 6, 6})), util::CheckError);
}

}  // namespace
}  // namespace nn
