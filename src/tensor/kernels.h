// Low-level compute kernels: raw-pointer BLAS-1 primitives and the SGEMM
// micro-kernel, with runtime ISA dispatch (portable scalar vs AVX2+FMA).
//
// Everything here is deterministic by construction: each function fixes its
// accumulation order (unrolled multi-accumulator lanes combined in a fixed
// tree), so repeated calls on the same inputs are bit-identical. The scalar
// and AVX2 paths may differ in the last ulp (FMA fuses the rounding); a
// process always picks one path at startup, so results are stable within a
// run and across runs on the same machine.
//
// This header is deliberately tensor-free (only <cstddef>): it sits below
// both tensor_ops and stats::vec_ops in the dependency graph, so the defense
// distance math (Krum, k-means, Zeno++, FLtrust, AsyncFilter scoring) and
// the NN layers share one compute core.
#pragma once

#include <cstddef>

namespace tensor::kernels {

enum class Isa {
  kScalar,  // portable fallback, auto-vectorizes at -O2/-O3
  kAvx2,    // AVX2 + FMA intrinsics, runtime-detected
};

// The ISA every kernel dispatches to. Detected once (cached); honours the
// AF_KERNEL_ISA environment variable ("scalar" | "avx2" | "auto") and any
// ForceIsa override. Requesting avx2 on a CPU without it falls back to
// scalar.
Isa ActiveIsa();

// Test hook: force a specific path (kAvx2 is ignored when unsupported).
void ForceIsa(Isa isa);
// Test hook: drop the ForceIsa override and return to detection + env.
void ResetForcedIsa();

// True when the CPU (and compiler) support the AVX2+FMA path.
bool Avx2Available();

// ---- BLAS-1 style primitives (double accumulation, fixed order) ----------

// <a, b> accumulated in double.
double Dot(const float* a, const float* b, std::size_t n);

// sum of v[i]^2 accumulated in double.
double SumSquares(const float* v, std::size_t n);

// ||a - b||^2 accumulated in double.
double SquaredDistance(const float* a, const float* b, std::size_t n);

// y[i] = float(y[i] + alpha * x[i]) with the product in double.
void Axpy(double alpha, const float* x, float* y, std::size_t n);

// v[i] = float(v[i] * alpha) with the product in double.
void Scale(float* v, double alpha, std::size_t n);

// out[i] = a[i] + b[i].
void Add(const float* a, const float* b, float* out, std::size_t n);

// a[i] += b[i].
void AddInPlace(float* a, const float* b, std::size_t n);

// row[i] += bias[i].
void AddBias(float* row, const float* bias, std::size_t n);

// out[j] += sum over rows of m[i * cols + j] (row-major m, rows × cols).
// Accumulates row-by-row in ascending order, matching the historical
// SumRows semantics.
void SumRowsAccum(const float* m, std::size_t rows, std::size_t cols,
                  float* out);

// dst[j * ld_dst + i] = src[i * ld_src + j] for i < rows, j < cols: reads
// src along its rows and writes the transpose in 4×4 register tiles. The
// GEMM packs use it to turn k-contiguous operands into k-major panels.
void Transpose(const float* src, std::size_t ld_src, std::size_t rows,
               std::size_t cols, float* dst, std::size_t ld_dst);

// ---- SGEMM micro-kernel ---------------------------------------------------

// Micro-tile geometry shared with the blocked driver in gemm.cc. kMr rows ×
// kNr columns; kNr is two AVX2 vectors wide, kMr leaves headroom for 12
// vector accumulators plus loads in 16 ymm registers.
inline constexpr std::size_t kMr = 6;
inline constexpr std::size_t kNr = 16;

// c[r*ldc + j] (kMr × kNr, overwritten) = sum over p in [0, kc) of
// ap[p*kMr + r] * bp[p*ldb + j]. `ap` is a packed A micro-panel (column of
// kMr rows, k-major). `bp` is either a packed B sliver (ldb == kNr) or kNr
// columns of B read in place (ldb = B's row stride). `c` is either a
// kMr × kNr scratch tile (ldc == kNr) or a full tile of C. Accumulation
// order over p is ascending on every path, so the values written do not
// depend on ldb or ldc.
void MicroKernel(std::size_t kc, const float* ap, const float* bp,
                 std::size_t ldb, float* c, std::size_t ldc);

}  // namespace tensor::kernels
