// In-memory labelled dataset plus batch assembly.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace data {

// A dataset stores every sample contiguously; `sample_shape` describes one
// sample (e.g. {1, 12, 12}) and batches are materialised on demand.
struct Dataset {
  tensor::Shape sample_shape;
  std::size_t num_classes = 0;
  std::vector<float> features;       // size = N * NumElements(sample_shape)
  std::vector<std::int64_t> labels;  // size = N

  std::size_t size() const { return labels.size(); }
  std::size_t sample_dim() const { return tensor::NumElements(sample_shape); }

  // Copies one sample's features.
  std::span<const float> Sample(std::size_t index) const;
};

struct Batch {
  tensor::Tensor features;            // see MakeBatch for the layout
  std::vector<std::int64_t> labels;   // size B
};

// Materialises the batch selected by `indices` (into `dataset`). Image
// samples ({C, H, W}) come out channel-major, {C, B, H, W}, the layout of
// nn's 4-D activations: channel c of every sample is one contiguous block.
// Samples of any other rank come out batch-first, {B, sample_shape...}.
Batch MakeBatch(const Dataset& dataset, std::span<const std::size_t> indices);

// Splits [0, n) into shuffled mini-batch index lists of size `batch_size`
// (last batch may be smaller).
std::vector<std::vector<std::size_t>> MakeMiniBatches(std::size_t n,
                                                      std::size_t batch_size,
                                                      std::mt19937_64& rng);

// Per-class sample counts; length = num_classes.
std::vector<std::size_t> LabelHistogram(const Dataset& dataset,
                                        std::span<const std::size_t> indices);

}  // namespace data
