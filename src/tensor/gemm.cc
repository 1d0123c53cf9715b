#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace tensor {
namespace {

using kernels::kMr;
using kernels::kNr;

// Macro-block sizes. KC×NC of packed B (~2 MB max) streams through L2/L3,
// MC×KC of packed A (~96 KB) sits in L1/L2 per row-tile task. MC is a
// multiple of kMr and NC a multiple of kNr so only the final micro-tile of
// a block is ragged.
constexpr std::size_t kMc = 96;
constexpr std::size_t kKc = kGemmKc;
constexpr std::size_t kNc = 2048;

std::size_t RoundUp(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// Copies kc runs of `live` floats, run p read from src + p·ld, into the
// k-major panel rows dst + p·kWidth. A full run (live == kWidth) is a
// fixed-size copy the compiler inlines.
template <std::size_t kWidth>
void CopyRuns(const float* src, std::size_t ld, std::size_t live,
              std::size_t kc, float* dst) {
  if (live == kWidth) {
    for (std::size_t p = 0; p < kc; ++p) {
      std::memcpy(dst + p * kWidth, src + p * ld, kWidth * sizeof(float));
    }
    return;
  }
  for (std::size_t p = 0; p < kc; ++p) {
    std::memcpy(dst + p * kWidth, src + p * ld, live * sizeof(float));
  }
}

// Packs rows [row0, row0+rows) × cols [pc, pc+kc) of op(A) into kMr-row
// micro-panels: panel s holds logical rows [s·kMr, (s+1)·kMr), stored
// k-major (ap[p·kMr + r]). The source is read along its contiguous
// direction: a row of A (kNone) is transposed into the panel, a row of
// Aᵀ's storage (kTranspose) already is a panel row. Rows past `rows` are
// zeroed by one memset before the copy, so the micro-kernel never needs a
// bounds check and no copy loop carries a per-element branch.
void PackA(Op op, const float* a, std::size_t lda, std::size_t row0,
           std::size_t rows, std::size_t pc, std::size_t kc, float* ap) {
  const std::size_t panels = RoundUp(rows, kMr) / kMr;
  for (std::size_t s = 0; s < panels; ++s) {
    float* panel = ap + s * kc * kMr;
    const std::size_t live = std::min(kMr, rows - s * kMr);
    const std::size_t first = row0 + s * kMr;
    if (live < kMr) {
      std::memset(panel, 0, kc * kMr * sizeof(float));
    }
    if (op == Op::kNone) {
      kernels::Transpose(a + first * lda + pc, lda, live, kc, panel, kMr);
    } else {
      CopyRuns<kMr>(a + pc * lda + first, lda, live, kc, panel);
    }
  }
}

// Packs rows [pc, pc+kc) × cols [col0, col0+cols) of op(B) into kNr-column
// slivers: sliver t holds logical columns [t·kNr, (t+1)·kNr), stored
// k-major (bp[p·kNr + j]). Read along the source's contiguous direction
// like PackA (kNone copies row runs, kTranspose transposes); columns past
// `cols` are zeroed before the copy.
void PackB(Op op, const float* b, std::size_t ldb, std::size_t pc,
           std::size_t kc, std::size_t col0, std::size_t cols, float* bp) {
  const std::size_t slivers = RoundUp(cols, kNr) / kNr;
  for (std::size_t t = 0; t < slivers; ++t) {
    float* sliver = bp + t * kc * kNr;
    const std::size_t live = std::min(kNr, cols - t * kNr);
    const std::size_t first = col0 + t * kNr;
    if (live < kNr) {
      std::memset(sliver, 0, kc * kNr * sizeof(float));
    }
    if (op == Op::kNone) {
      CopyRuns<kNr>(b + pc * ldb + first, ldb, live, kc, sliver);
    } else {
      kernels::Transpose(b + first * ldb + pc, ldb, live, kc, sliver, kNr);
    }
  }
}

struct GemmCounters {
  obs::Counter& calls;
  obs::Counter& flops;
  obs::Counter& bytes_packed;
};

// Looked up per call (one registry mutex hop against milliseconds of math)
// rather than cached, so DefaultRegistry().Reset() in tests cannot leave a
// dangling reference behind.
GemmCounters Counters() {
  auto& reg = obs::DefaultRegistry();
  return {reg.GetCounter("gemm.calls"), reg.GetCounter("gemm.flops"),
          reg.GetCounter("gemm.bytes_packed")};
}

}  // namespace

void Sgemm(Op op_a, Op op_b, std::size_t m, std::size_t n, std::size_t k,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float* c, std::size_t ldc, const float* bias, float beta,
           util::ThreadPool* pool) {
  if (m == 0 || n == 0) {
    return;
  }
  const bool accumulate = beta != 0.0f;
  if (k == 0) {
    // Empty reduction: C = bias (broadcast) or zero; accumulate is a no-op.
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) {
        if (bias != nullptr) {
          std::memcpy(c + i * ldc, bias, n * sizeof(float));
        } else {
          std::memset(c + i * ldc, 0, n * sizeof(float));
        }
      }
    }
    return;
  }

  GemmCounters counters = Counters();
  counters.calls.Increment();
  counters.flops.Increment(2ull * m * n * k);
  std::uint64_t bytes_packed = 0;

  // Pack-free B: without a transpose and with a single K block, the B panel
  // would be read once per kMr-row panel of A straight after packing it, so
  // full kNr-column slivers are read in place (row stride ldb) instead. Only
  // a ragged last sliver still needs the zero-padded packed copy.
  const bool direct_b = op_b == Op::kNone && k <= kKc;

  // Packed-B panel for the current (jc, pc) block, shared read-only by all
  // row-tile tasks. thread_local so repeated calls reuse the allocation.
  thread_local std::vector<float> tl_bpanel;

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    // Columns [0, in_place) of this block are read from B directly; the
    // rest are packed.
    const std::size_t in_place = direct_b ? nc / kNr * kNr : 0;
    const std::size_t packed_padded = RoundUp(nc - in_place, kNr);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      if (tl_bpanel.size() < kc * packed_padded) {
        tl_bpanel.resize(kc * packed_padded);
      }
      PackB(op_b, b, ldb, pc, kc, jc + in_place, nc - in_place,
            tl_bpanel.data());
      bytes_packed += kc * packed_padded * sizeof(float);
      const float* bpanel = tl_bpanel.data();

      const bool overwrite = pc == 0 && !accumulate;
      const std::size_t tiles = (m + kMc - 1) / kMc;
      auto tile_body = [&](std::size_t t) {
        const std::size_t ic = t * kMc;
        const std::size_t mc = std::min(kMc, m - ic);
        const std::size_t mc_padded = RoundUp(mc, kMr);
        thread_local std::vector<float> tl_apanel;
        if (tl_apanel.size() < kc * mc_padded) {
          tl_apanel.resize(kc * mc_padded);
        }
        PackA(op_a, a, lda, ic, mc, pc, kc, tl_apanel.data());
        const float* apanel = tl_apanel.data();

        float acc[kMr * kNr];
        for (std::size_t jr = 0; jr < nc; jr += kNr) {
          const std::size_t nr = std::min(kNr, nc - jr);
          const bool b_in_place = jr < in_place;
          const float* bsliver =
              b_in_place ? b + pc * ldb + jc + jr
                         : bpanel + ((jr - in_place) / kNr) * kc * kNr;
          const std::size_t bstride = b_in_place ? ldb : kNr;
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            const std::size_t mr = std::min(kMr, mc - ir);
            const float* asliver = apanel + (ir / kMr) * kc * kMr;
            float* ctile = c + (ic + ir) * ldc + jc + jr;
            if (overwrite && bias == nullptr && mr == kMr && nr == kNr) {
              // Full tile, nothing to add: the kernel stores straight to C.
              kernels::MicroKernel(kc, asliver, bsliver, bstride, ctile, ldc);
              continue;
            }
            kernels::MicroKernel(kc, asliver, bsliver, bstride, acc, kNr);
            if (overwrite) {
              if (bias != nullptr) {
                const float* brow = bias + jc + jr;
                for (std::size_t r = 0; r < mr; ++r) {
                  for (std::size_t j = 0; j < nr; ++j) {
                    ctile[r * ldc + j] = acc[r * kNr + j] + brow[j];
                  }
                }
              } else {
                for (std::size_t r = 0; r < mr; ++r) {
                  std::memcpy(ctile + r * ldc, acc + r * kNr,
                              nr * sizeof(float));
                }
              }
            } else {
              for (std::size_t r = 0; r < mr; ++r) {
                for (std::size_t j = 0; j < nr; ++j) {
                  ctile[r * ldc + j] += acc[r * kNr + j];
                }
              }
            }
          }
        }
      };
      if (pool != nullptr && tiles > 1) {
        pool->ParallelFor(tiles, tile_body);
      } else {
        for (std::size_t t = 0; t < tiles; ++t) {
          tile_body(t);
        }
      }
      // A-panel packing volume, accounted analytically (the workers write
      // into thread_local scratch; totals are deterministic either way).
      for (std::size_t t = 0; t < tiles; ++t) {
        const std::size_t mc = std::min(kMc, m - t * kMc);
        bytes_packed += kc * RoundUp(mc, kMr) * sizeof(float);
      }
    }
  }
  counters.bytes_packed.Increment(bytes_packed);
}

void Gemm(Op op_a, Op op_b, const Tensor& a, const Tensor& b, Tensor& c,
          const float* bias, float beta) {
  AF_CHECK_EQ(a.rank(), 2u);
  AF_CHECK_EQ(b.rank(), 2u);
  AF_CHECK_EQ(c.rank(), 2u);
  const std::size_t m = op_a == Op::kNone ? a.dim(0) : a.dim(1);
  const std::size_t k = op_a == Op::kNone ? a.dim(1) : a.dim(0);
  const std::size_t kb = op_b == Op::kNone ? b.dim(0) : b.dim(1);
  const std::size_t n = op_b == Op::kNone ? b.dim(1) : b.dim(0);
  AF_CHECK_EQ(k, kb) << "inner dimensions differ";
  AF_CHECK_EQ(c.dim(0), m);
  AF_CHECK_EQ(c.dim(1), n);
  AF_CHECK(bias == nullptr || beta == 0.0f) << "bias requires beta == 0";
  Sgemm(op_a, op_b, m, n, k, a.data().data(), a.dim(1), b.data().data(),
        b.dim(1), c.data().data(), n, bias, beta);
}

}  // namespace tensor
