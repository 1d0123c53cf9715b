#include "fl/client.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "nn/loss.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fl {

Client::Client(int id, const data::Dataset* dataset,
               std::vector<std::size_t> partition, const nn::ModelSpec& spec,
               std::uint64_t model_seed)
    : id_(id),
      dataset_(dataset),
      partition_(std::move(partition)),
      model_(spec.factory(model_seed)) {
  AF_CHECK(dataset_ != nullptr);
  AF_CHECK(!partition_.empty()) << "client " << id << " has no data";
}

std::vector<float> Client::TrainOnce(std::span<const float> base_params,
                                     const LocalTrainConfig& config,
                                     std::mt19937_64& rng) {
  AF_TRACE_SPAN("client.train");
  model_->SetFlatParams(base_params);
  std::unique_ptr<nn::Optimizer> optimizer = nn::MakeOptimizer(config.optimizer);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto batches =
        data::MakeMiniBatches(partition_.size(), config.batch_size, rng);
    for (const auto& batch_slots : batches) {
      // Map batch slots (positions in the partition) to dataset indices.
      std::vector<std::size_t> indices;
      indices.reserve(batch_slots.size());
      for (std::size_t slot : batch_slots) {
        indices.push_back(partition_[slot]);
      }
      data::Batch batch = data::MakeBatch(*dataset_, indices);
      model_->ZeroGrads();
      tensor::Tensor logits = model_->Forward(batch.features);
      nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, batch.labels);
      model_->Backward(loss.grad_logits);
      optimizer->Step(model_->Params(), model_->Grads());
    }
  }

  std::vector<float> delta = model_->GetFlatParams();
  AF_CHECK_EQ(delta.size(), base_params.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] -= base_params[i];
  }
  return delta;
}

double EvaluateAccuracy(const nn::ModelSpec& spec,
                        std::span<nn::Sequential* const> models,
                        std::span<const float> params,
                        const data::Dataset& dataset, util::ThreadPool* pool,
                        std::size_t batch_size) {
  AF_TRACE_SPAN("eval.batch_accuracy");
  AF_CHECK_GT(dataset.size(), 0u);
  AF_CHECK_GT(batch_size, 0u);
  AF_CHECK(!models.empty());
  AF_CHECK_EQ(dataset.num_classes, spec.num_classes);
  const std::size_t num_batches = (dataset.size() + batch_size - 1) / batch_size;
  std::atomic<std::size_t> next_batch{0};
  std::vector<std::size_t> correct(models.size(), 0);
  auto worker = [&](std::size_t r) {
    std::size_t b = next_batch.fetch_add(1);
    if (b >= num_batches) {
      return;  // nothing left: skip loading this replica
    }
    nn::Sequential& model = *models[r];
    model.SetFlatParams(params);
    std::vector<std::size_t> indices;
    for (; b < num_batches; b = next_batch.fetch_add(1)) {
      const std::size_t start = b * batch_size;
      const std::size_t end = std::min(start + batch_size, dataset.size());
      indices.resize(end - start);
      std::iota(indices.begin(), indices.end(), start);
      data::Batch batch = data::MakeBatch(dataset, indices);
      tensor::Tensor logits = model.Forward(batch.features);
      correct[r] += nn::CountCorrect(logits, batch.labels);
    }
  };
  if (pool == nullptr) {
    worker(0);
  } else {
    pool->ParallelFor(models.size(), worker);
  }
  const std::size_t total =
      std::accumulate(correct.begin(), correct.end(), std::size_t{0});
  return static_cast<double>(total) / static_cast<double>(dataset.size());
}

}  // namespace fl
