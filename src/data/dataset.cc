#include "data/dataset.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace data {

std::span<const float> Dataset::Sample(std::size_t index) const {
  AF_CHECK_LT(index, size());
  const std::size_t dim = sample_dim();
  return std::span<const float>(features.data() + index * dim, dim);
}

Batch MakeBatch(const Dataset& dataset, std::span<const std::size_t> indices) {
  AF_CHECK(!indices.empty());
  const std::size_t count = indices.size();
  const std::size_t dim = dataset.sample_dim();
  const tensor::Shape& sample_shape = dataset.sample_shape;
  // Images {C, H, W} batch channel-major as {C, N, H, W}; any other sample
  // rank batches as {N, sample...}, which is the same layout with C = 1.
  const bool image = sample_shape.size() == 3;
  const std::size_t channels = image ? sample_shape[0] : 1;
  const std::size_t plane = image ? sample_shape[1] * sample_shape[2] : dim;
  tensor::Shape batch_shape;
  if (image) {
    batch_shape = {channels, count, sample_shape[1], sample_shape[2]};
  } else {
    batch_shape.push_back(count);
    batch_shape.insert(batch_shape.end(), sample_shape.begin(),
                       sample_shape.end());
  }
  Batch batch{tensor::Tensor(batch_shape), {}};
  batch.labels.reserve(count);
  float* dst = batch.features.data().data();
  for (std::size_t k = 0; k < count; ++k) {
    const float* sample = dataset.Sample(indices[k]).data();
    for (std::size_t c = 0; c < channels; ++c) {
      std::copy(sample + c * plane, sample + (c + 1) * plane,
                dst + (c * count + k) * plane);
    }
    batch.labels.push_back(dataset.labels[indices[k]]);
  }
  return batch;
}

std::vector<std::vector<std::size_t>> MakeMiniBatches(std::size_t n,
                                                      std::size_t batch_size,
                                                      std::mt19937_64& rng) {
  AF_CHECK_GT(batch_size, 0u);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::vector<std::size_t>> batches;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(start + batch_size, n);
    batches.emplace_back(order.begin() + start, order.begin() + end);
  }
  return batches;
}

std::vector<std::size_t> LabelHistogram(const Dataset& dataset,
                                        std::span<const std::size_t> indices) {
  std::vector<std::size_t> hist(dataset.num_classes, 0);
  for (std::size_t idx : indices) {
    AF_CHECK_LT(idx, dataset.size());
    hist[static_cast<std::size_t>(dataset.labels[idx])]++;
  }
  return hist;
}

}  // namespace data
