// Cache-blocked, register-tiled SGEMM — the compute core every dense hot
// path routes through (Dense forward/backward, Conv2d im2col products, and
// via tensor_ops the legacy MatMul* entry points).
//
// Design (BLIS-style): the driver tiles C into MC×NC macro-blocks, packs
// A/B panels into contiguous micro-panels (zero-padded to the kMr×kNr
// micro-tile), and calls the kernels::MicroKernel for every tile. The
// packed layout makes one micro-kernel serve all four transpose variants.
// Direct path: when op_b == kNone and K fits one block (k <= kGemmKc), full
// kNr-column slivers of B are read in place and only a ragged last sliver
// is packed; full micro-tiles that overwrite C without a bias are stored
// by the kernel straight into C instead of through a scratch tile.
//
// Determinism contract: for fixed inputs the output is bit-identical across
// runs, across thread counts, and between the packed and direct paths.
// Each C element is owned by exactly one row-tile task, the K dimension is
// reduced strictly in ascending block order (the pc loop is sequential,
// outside the parallel fan-out), and the micro-kernel accumulates ascending
// in k whatever strides it reads B and writes C with. Parallelism only
// distributes disjoint row tiles. Each C element also depends only on its
// own row of op_a(A) and column of op_b(B), never on m or n, so a row of
// results does not change with the batch it is computed in. The scalar and AVX2 micro-kernels may differ in final
// ulps (FMA); the ISA is fixed per process (kernels::ActiveIsa), so this
// never varies within or across runs on one machine.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace util {
class ThreadPool;
}

namespace tensor {

enum class Op : std::uint8_t { kNone, kTranspose };

// Reduction block: K is reduced in blocks of this many, in ascending order
// (the first block overwrites or biases C, later blocks add to it).
inline constexpr std::size_t kGemmKc = 256;

// C = op_a(A) · op_b(B) [+ bias] [+ beta·C], raw-pointer form.
//
//   op_a(A) is m×k, op_b(B) is k×n, C is m×n.
//   lda/ldb/ldc are row strides of the matrices as stored (A is stored
//   m×k when op_a == kNone, k×m when op_a == kTranspose; same for B).
//   bias: optional length-n row vector added to every row of C.
//   beta: 0 overwrites C, any nonzero value accumulates (C += A·B);
//         bias requires beta == 0.
//   pool: optional thread pool to fan row tiles out over; nullptr runs
//         serially. Results are bit-identical either way.
void Sgemm(Op op_a, Op op_b, std::size_t m, std::size_t n, std::size_t k,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float* c, std::size_t ldc, const float* bias = nullptr,
           float beta = 0.0f, util::ThreadPool* pool = nullptr);

// Tensor convenience wrapper: shapes are taken from the tensors (all rank
// 2), dimension mismatches throw util::CheckError, and it runs serially
// (callers parallelise across clients, not inside one GEMM).
void Gemm(Op op_a, Op op_b, const Tensor& a, const Tensor& b, Tensor& c,
          const float* bias = nullptr, float beta = 0.0f);

}  // namespace tensor
