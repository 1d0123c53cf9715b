#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace tensor {
namespace {

float LogicalAt(const Tensor& t, Op op, std::size_t i, std::size_t j) {
  return op == Op::kNone ? t.At(i, j) : t.At(j, i);
}

// Naive triple-loop reference with double accumulation.
void ReferenceGemm(Op op_a, Op op_b, const Tensor& a, const Tensor& b,
                   Tensor& c, const float* bias, float beta) {
  const std::size_t m = c.dim(0), n = c.dim(1);
  const std::size_t k = op_a == Op::kNone ? a.dim(1) : a.dim(0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(LogicalAt(a, op_a, i, p)) *
               LogicalAt(b, op_b, p, j);
      }
      if (bias != nullptr) {
        acc += bias[j];
      }
      const double base = beta != 0.0f ? c.At(i, j) : 0.0;
      c.At(i, j) = static_cast<float>(base + acc);
    }
  }
}

Tensor RandomTensor(Shape shape, std::mt19937_64& rng) {
  Tensor t(std::move(shape));
  t.FillNormal(0.0f, 1.0f, rng);
  return t;
}

struct GemmShape {
  std::size_t m, n, k;
};

// Shapes chosen to cross every blocking boundary: micro-tile remainders
// (6/16 non-multiples), the MC=96 row-tile edge, the KC=256 reduction
// blocks, degenerate 0/1 extents, and LeNet-scale layers.
const GemmShape kShapes[] = {
    {0, 4, 3},   {4, 0, 3},    {4, 3, 0},   {1, 1, 1},   {2, 3, 4},
    {6, 16, 8},  {7, 17, 9},   {5, 20, 513}, {13, 17, 300}, {97, 33, 31},
    {100, 10, 5}, {64, 120, 400}, {12, 130, 37},
};

TEST(GemmTest, MatchesNaiveReferenceAcrossShapesAndTransposes) {
  std::mt19937_64 rng(1234);
  for (const GemmShape& s : kShapes) {
    for (Op op_a : {Op::kNone, Op::kTranspose}) {
      for (Op op_b : {Op::kNone, Op::kTranspose}) {
        Tensor a = RandomTensor(op_a == Op::kNone ? Shape{s.m, s.k}
                                                  : Shape{s.k, s.m},
                                rng);
        Tensor b = RandomTensor(op_b == Op::kNone ? Shape{s.k, s.n}
                                                  : Shape{s.n, s.k},
                                rng);
        Tensor c({s.m, s.n});
        Tensor expected({s.m, s.n});
        Gemm(op_a, op_b, a, b, c);
        ReferenceGemm(op_a, op_b, a, b, expected, nullptr, 0.0f);
        const double tol = 1e-4 * static_cast<double>(s.k + 10);
        for (std::size_t i = 0; i < c.size(); ++i) {
          ASSERT_NEAR(c[i], expected[i], tol)
              << "shape " << s.m << "x" << s.n << "x" << s.k << " ops "
              << static_cast<int>(op_a) << "," << static_cast<int>(op_b)
              << " index " << i;
        }
      }
    }
  }
}

TEST(GemmTest, BiasEpilogueAndAccumulateMatchReference) {
  std::mt19937_64 rng(99);
  for (const GemmShape& s : kShapes) {
    Tensor a = RandomTensor({s.m, s.k}, rng);
    Tensor b = RandomTensor({s.k, s.n}, rng);
    Tensor bias = RandomTensor({s.n}, rng);

    Tensor c({s.m, s.n});
    Tensor expected({s.m, s.n});
    Gemm(Op::kNone, Op::kNone, a, b, c, bias.data().data());
    ReferenceGemm(Op::kNone, Op::kNone, a, b, expected, bias.data().data(),
                  0.0f);
    const double tol = 1e-4 * static_cast<double>(s.k + 10);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], expected[i], tol) << "bias, index " << i;
    }

    // beta = 1 accumulates on top of existing contents.
    Tensor acc = RandomTensor({s.m, s.n}, rng);
    Tensor acc_expected = acc;
    Gemm(Op::kNone, Op::kNone, a, b, acc, nullptr, 1.0f);
    ReferenceGemm(Op::kNone, Op::kNone, a, b, acc_expected, nullptr, 1.0f);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      ASSERT_NEAR(acc[i], acc_expected[i], tol) << "beta=1, index " << i;
    }
  }
}

TEST(GemmTest, KZeroWritesBiasOrZero) {
  Tensor a({3, 0});
  Tensor b({0, 4});
  Tensor c({3, 4}, std::vector<float>(12, 7.0f));
  Gemm(Op::kNone, Op::kNone, a, b, c);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_FLOAT_EQ(c[i], 0.0f);
  }
  Tensor bias({4}, {1, 2, 3, 4});
  Gemm(Op::kNone, Op::kNone, a, b, c, bias.data().data());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(c.At(i, j), bias[j]);
    }
  }
}

TEST(GemmTest, BitIdenticalAcrossRunsAndThreadCounts) {
  std::mt19937_64 rng(7);
  Tensor a = RandomTensor({200, 520}, rng);
  Tensor b = RandomTensor({520, 300}, rng);

  Tensor serial1({200, 300});
  Tensor serial2({200, 300});
  Gemm(Op::kNone, Op::kNone, a, b, serial1);
  Gemm(Op::kNone, Op::kNone, a, b, serial2);
  ASSERT_EQ(std::memcmp(serial1.data().data(), serial2.data().data(),
                        serial1.size() * sizeof(float)),
            0)
      << "repeated serial runs differ";

  for (std::size_t threads : {2u, 4u, 7u}) {
    util::ThreadPool pool(threads);
    Tensor parallel({200, 300});
    Sgemm(Op::kNone, Op::kNone, 200, 300, 520, a.data().data(), 520,
          b.data().data(), 300, parallel.data().data(), 300, nullptr, 0.0f,
          &pool);
    ASSERT_EQ(std::memcmp(serial1.data().data(), parallel.data().data(),
                          serial1.size() * sizeof(float)),
              0)
        << "serial vs " << threads << " threads differ";
  }
}

TEST(GemmTest, ScalarAndAvx2PathsAgree) {
  if (!kernels::Avx2Available()) {
    GTEST_SKIP() << "no AVX2 on this machine";
  }
  std::mt19937_64 rng(21);
  Tensor a = RandomTensor({37, 301}, rng);
  Tensor b = RandomTensor({301, 45}, rng);
  Tensor scalar({37, 45});
  Tensor avx2({37, 45});
  kernels::ForceIsa(kernels::Isa::kScalar);
  Gemm(Op::kNone, Op::kNone, a, b, scalar);
  kernels::ForceIsa(kernels::Isa::kAvx2);
  Gemm(Op::kNone, Op::kNone, a, b, avx2);
  kernels::ResetForcedIsa();
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_NEAR(scalar[i], avx2[i], 1e-3) << "index " << i;
  }
}

// Regression for the seed's `if (av == 0.0f) continue;` shortcut, which
// silently dropped NaN/Inf propagation from the other operand.
TEST(GemmTest, ZeroTimesNaNPropagates) {
  Tensor a({2, 2});  // all zeros
  Tensor b({2, 2});
  b.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  Tensor c({2, 2});
  MatMul(a, b, c);
  EXPECT_TRUE(std::isnan(c.At(0, 0)));
  EXPECT_TRUE(std::isnan(c.At(1, 0)));

  Tensor at({2, 2});
  Tensor ct({2, 2});
  MatMulTransposeA(at, b, ct);
  EXPECT_TRUE(std::isnan(ct.At(0, 0)));
}

TEST(GemmTest, RecordsObsCounters) {
  auto& reg = obs::DefaultRegistry();
  const std::uint64_t calls_before = reg.GetCounter("gemm.calls").Value();
  const std::uint64_t flops_before = reg.GetCounter("gemm.flops").Value();
  std::mt19937_64 rng(3);
  Tensor a = RandomTensor({8, 12}, rng);
  Tensor b = RandomTensor({12, 5}, rng);
  Tensor c({8, 5});
  Gemm(Op::kNone, Op::kNone, a, b, c);
  EXPECT_EQ(reg.GetCounter("gemm.calls").Value(), calls_before + 1);
  EXPECT_EQ(reg.GetCounter("gemm.flops").Value(),
            flops_before + 2ull * 8 * 5 * 12);
  EXPECT_GT(reg.GetCounter("gemm.bytes_packed").Value(), 0u);
}

// Bit-exact model of the blocked driver: each C element accumulates its
// products in ascending k, in float, from +0 (fused on the AVX2 path), one
// kGemmKc block at a time; the first block overwrites C (plus bias) unless
// beta != 0, and later blocks add to C.
Tensor BitwiseReference(Op op_a, Op op_b, const Tensor& a, const Tensor& b,
                        const Tensor& c_in, const float* bias, float beta,
                        bool fused) {
  Tensor c = c_in;
  const std::size_t m = c.dim(0), n = c.dim(1);
  const std::size_t k = op_a == Op::kNone ? a.dim(1) : a.dim(0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t pc = 0; pc < k; pc += kGemmKc) {
        float acc = 0.0f;
        for (std::size_t p = pc; p < std::min(k, pc + kGemmKc); ++p) {
          const float x = LogicalAt(a, op_a, i, p);
          const float y = LogicalAt(b, op_b, p, j);
          if (fused) {
            acc = std::fma(x, y, acc);
          } else {
            const float prod = x * y;
            acc = acc + prod;
          }
        }
        if (pc == 0 && beta == 0.0f) {
          c.At(i, j) = bias != nullptr ? acc + bias[j] : acc;
        } else {
          c.At(i, j) += acc;
        }
      }
    }
  }
  return c;
}

bool BitwiseEqual(const Tensor& x, const Tensor& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.size() * sizeof(float)) == 0;
}

// Row-major copy of the transpose.
Tensor Transposed(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (std::size_t i = 0; i < t.dim(0); ++i) {
    for (std::size_t j = 0; j < t.dim(1); ++j) {
      out.At(j, i) = t.At(i, j);
    }
  }
  return out;
}

std::vector<kernels::Isa> AvailableIsas() {
  std::vector<kernels::Isa> isas{kernels::Isa::kScalar};
  if (kernels::Avx2Available()) {
    isas.push_back(kernels::Isa::kAvx2);
  }
  return isas;
}

// Shapes for the bitwise tests: full kMr×kNr tiles, ragged rows and
// columns, full slivers followed by a ragged one, an NC block edge, and k on
// both sides of the single-K-block limit of the direct path.
const GemmShape kBitwiseShapes[] = {
    {12, 32, 9},   {7, 21, 9},    {6, 40, 27},  {13, 48, 256},
    {5, 35, 257},  {12, 16, 600}, {6, 2100, 9}, {9, 4608, 6},
};

TEST(GemmTest, AllPathsMatchBitwiseReferenceUnderEveryIsa) {
  for (kernels::Isa isa : AvailableIsas()) {
    kernels::ForceIsa(isa);
    const bool fused = isa == kernels::Isa::kAvx2;
    std::mt19937_64 rng(77);
    for (const GemmShape& s : kBitwiseShapes) {
      for (Op op_a : {Op::kNone, Op::kTranspose}) {
        for (Op op_b : {Op::kNone, Op::kTranspose}) {
          const Tensor a = RandomTensor(
              op_a == Op::kNone ? Shape{s.m, s.k} : Shape{s.k, s.m}, rng);
          const Tensor b = RandomTensor(
              op_b == Op::kNone ? Shape{s.k, s.n} : Shape{s.n, s.k}, rng);
          const Tensor bias = RandomTensor({s.n}, rng);
          const Tensor base = RandomTensor({s.m, s.n}, rng);
          struct Mode {
            const char* name;
            const float* bias;
            float beta;
          };
          for (const Mode& mode : {Mode{"overwrite", nullptr, 0.0f},
                                   Mode{"bias", bias.data().data(), 0.0f},
                                   Mode{"beta=1", nullptr, 1.0f}}) {
            Tensor c = base;
            Gemm(op_a, op_b, a, b, c, mode.bias, mode.beta);
            const Tensor expected = BitwiseReference(op_a, op_b, a, b, base,
                                                     mode.bias, mode.beta,
                                                     fused);
            ASSERT_TRUE(BitwiseEqual(c, expected))
                << (fused ? "avx2 " : "scalar ") << s.m << "x" << s.n << "x"
                << s.k << " ops " << static_cast<int>(op_a) << ","
                << static_cast<int>(op_b) << " " << mode.name;
          }
        }
      }
    }
  }
  kernels::ResetForcedIsa();
}

// op_b == kNone with k <= kGemmKc takes the direct path; the same product
// through a transposed copy of B takes the packed path.
TEST(GemmTest, DirectPathMatchesPackedPathBitwise) {
  for (kernels::Isa isa : AvailableIsas()) {
    kernels::ForceIsa(isa);
    std::mt19937_64 rng(78);
    for (const GemmShape& s : kBitwiseShapes) {
      if (s.k > kGemmKc) {
        continue;
      }
      for (Op op_a : {Op::kNone, Op::kTranspose}) {
        const Tensor a = RandomTensor(
            op_a == Op::kNone ? Shape{s.m, s.k} : Shape{s.k, s.m}, rng);
        const Tensor b = RandomTensor({s.k, s.n}, rng);
        const Tensor bt = Transposed(b);
        const Tensor bias = RandomTensor({s.n}, rng);
        const Tensor base = RandomTensor({s.m, s.n}, rng);
        for (const float* bias_ptr : {static_cast<const float*>(nullptr),
                                      bias.data().data()}) {
          Tensor direct({s.m, s.n});
          Tensor packed({s.m, s.n});
          Gemm(op_a, Op::kNone, a, b, direct, bias_ptr);
          Gemm(op_a, Op::kTranspose, a, bt, packed, bias_ptr);
          ASSERT_TRUE(BitwiseEqual(direct, packed))
              << s.m << "x" << s.n << "x" << s.k;
        }
        Tensor direct = base;
        Tensor packed = base;
        Gemm(op_a, Op::kNone, a, b, direct, nullptr, 1.0f);
        Gemm(op_a, Op::kTranspose, a, bt, packed, nullptr, 1.0f);
        ASSERT_TRUE(BitwiseEqual(direct, packed))
            << "beta=1 " << s.m << "x" << s.n << "x" << s.k;
      }
    }
  }
  kernels::ResetForcedIsa();
}

// Every pack case against the kNone pack of an explicitly transposed copy,
// for op_a and op_b alike: ragged m (not a multiple of kMr), ragged n (not a
// multiple of kNr) and k over several kGemmKc blocks. Operands sit in
// wider buffers (row stride = width + 3), so the packs' strides are live.
TEST(GemmTest, TransposedPacksMatchExplicitTransposeBitwise) {
  constexpr std::size_t kPad = 3;
  struct Stored {
    std::vector<float> data;
    std::size_t ld;
  };
  // rows × cols matrix with row stride cols + kPad; the pad is NaN, so a
  // pack that strays into it poisons the result.
  auto random_stored = [](std::size_t rows, std::size_t cols,
                          std::mt19937_64& rng) {
    Stored m{std::vector<float>(rows * (cols + kPad),
                                std::numeric_limits<float>::quiet_NaN()),
             cols + kPad};
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        m.data[i * m.ld + j] = dist(rng);
      }
    }
    return m;
  };
  auto transposed = [](const Stored& m, std::size_t rows, std::size_t cols) {
    Stored t{std::vector<float>(cols * (rows + kPad),
                                std::numeric_limits<float>::quiet_NaN()),
             rows + kPad};
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        t.data[j * t.ld + i] = m.data[i * m.ld + j];
      }
    }
    return t;
  };
  const GemmShape shapes[] = {
      {13, 37, kGemmKc + 44}, {97, 21, 2 * kGemmKc + 7}, {5, 130, 3 * kGemmKc},
      {7, 9, kGemmKc - 1}};
  for (kernels::Isa isa : AvailableIsas()) {
    kernels::ForceIsa(isa);
    std::mt19937_64 rng(79);
    for (const GemmShape& s : shapes) {
      const Stored a = random_stored(s.m, s.k, rng);   // op(A) = A
      const Stored b = random_stored(s.k, s.n, rng);   // op(B) = B
      const Stored at = transposed(a, s.m, s.k);       // Aᵀ stored k × m
      const Stored bt = transposed(b, s.k, s.n);       // Bᵀ stored n × k
      auto run = [&](Op op_a, const Stored& sa, Op op_b, const Stored& sb) {
        std::vector<float> c(s.m * s.n);
        Sgemm(op_a, op_b, s.m, s.n, s.k, sa.data.data(), sa.ld,
              sb.data.data(), sb.ld, c.data(), s.n);
        return c;
      };
      const std::vector<float> plain = run(Op::kNone, a, Op::kNone, b);
      for (float v : plain) {
        ASSERT_FALSE(std::isnan(v)) << "a pack read the stride padding";
      }
      const std::vector<float> trans_a = run(Op::kTranspose, at, Op::kNone, b);
      const std::vector<float> trans_b = run(Op::kNone, a, Op::kTranspose, bt);
      const std::vector<float> both =
          run(Op::kTranspose, at, Op::kTranspose, bt);
      const std::size_t bytes = plain.size() * sizeof(float);
      EXPECT_EQ(std::memcmp(plain.data(), trans_a.data(), bytes), 0)
          << "op_a " << s.m << "x" << s.n << "x" << s.k;
      EXPECT_EQ(std::memcmp(plain.data(), trans_b.data(), bytes), 0)
          << "op_b " << s.m << "x" << s.n << "x" << s.k;
      EXPECT_EQ(std::memcmp(plain.data(), both.data(), bytes), 0)
          << "both " << s.m << "x" << s.n << "x" << s.k;
    }
  }
  kernels::ResetForcedIsa();
}

// gemm.bytes_packed counts the panels actually packed: always the A panel,
// and of B only what the packed path or a ragged direct-path sliver copies.
TEST(GemmTest, BytesPackedCountsOnlyPackedPanels) {
  auto& bytes = obs::DefaultRegistry().GetCounter("gemm.bytes_packed");
  std::mt19937_64 rng(4);
  auto packed_by = [&](Op op_b, std::size_t m, std::size_t n, std::size_t k) {
    const Tensor a = RandomTensor({m, k}, rng);
    const Tensor b =
        RandomTensor(op_b == Op::kNone ? Shape{k, n} : Shape{n, k}, rng);
    Tensor c({m, n});
    const std::uint64_t before = bytes.Value();
    Gemm(Op::kNone, op_b, a, b, c);
    return bytes.Value() - before;
  };
  const std::uint64_t a_panel = 9 * 6 * sizeof(float);  // kc=9, one kMr panel
  const std::uint64_t sliver = 9 * kernels::kNr * sizeof(float);
  EXPECT_EQ(packed_by(Op::kNone, 6, 32, 9), a_panel);
  EXPECT_EQ(packed_by(Op::kNone, 6, 40, 9), a_panel + sliver);
  EXPECT_EQ(packed_by(Op::kTranspose, 6, 32, 9), a_panel + 2 * sliver);
  // k past one block: B is packed per block, as before.
  const std::uint64_t two_blocks = (256 + 44) * (6 + 2 * kernels::kNr) *
                                   sizeof(float);
  EXPECT_EQ(packed_by(Op::kNone, 6, 32, 300), two_blocks);
}

TEST(GemmTest, MismatchedShapesThrow) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  Tensor c({2, 2});
  EXPECT_THROW(Gemm(Op::kNone, Op::kNone, a, b, c), util::CheckError);
  Tensor bias({2});
  Tensor b_ok({3, 2});
  EXPECT_THROW(Gemm(Op::kNone, Op::kNone, a, b_ok, c, bias.data().data(), 1.0f),
               util::CheckError);
}

}  // namespace
}  // namespace tensor
