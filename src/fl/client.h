// Client-side local training.
//
// A client owns a persistent model instance (so repeated jobs reuse the
// buffers) and produces flat parameter deltas: delta = trained − base.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "util/thread_pool.h"

namespace fl {

// EvaluateAccuracy's default batch size (samples per replica call).
inline constexpr std::size_t kEvalBatch = 16;

struct LocalTrainConfig {
  std::size_t epochs = 5;
  std::size_t batch_size = 32;
  nn::OptimizerConfig optimizer;
};

class Client {
 public:
  // `partition` indexes into `dataset`; both must outlive the client.
  Client(int id, const data::Dataset* dataset,
         std::vector<std::size_t> partition, const nn::ModelSpec& spec,
         std::uint64_t model_seed);

  // Runs E local epochs starting from `base_params` and returns the flat
  // delta. `rng` drives mini-batch shuffling; a fresh optimizer is built per
  // job (local state does not leak across FL rounds).
  std::vector<float> TrainOnce(std::span<const float> base_params,
                               const LocalTrainConfig& config,
                               std::mt19937_64& rng);

  int id() const { return id_; }
  std::size_t num_samples() const { return partition_.size(); }
  const std::vector<std::size_t>& partition() const { return partition_; }

 private:
  int id_;
  const data::Dataset* dataset_;
  std::vector<std::size_t> partition_;
  std::unique_ptr<nn::Sequential> model_;
};

// Server-side accuracy evaluation of flat parameters on a dataset.
//
// The dataset's batches are shared out over `models`, one replica per
// worker: each replica loads `params`, then pulls batch indices from a
// shared counter until none are left, and the integer correct-counts are
// summed. With a `pool` the replicas run as one ParallelFor on it; without
// one, the first replica runs the same loop on the calling thread.
// The result is bit-identical for any replica count and any batch_size,
// since each sample's logits are computed independently of the rest of its
// batch. The default batch keeps a replica's Conv2d im2col arenas small
// (see docs/PERFORMANCE.md).
double EvaluateAccuracy(const nn::ModelSpec& spec,
                        std::span<nn::Sequential* const> models,
                        std::span<const float> params,
                        const data::Dataset& dataset,
                        util::ThreadPool* pool = nullptr,
                        std::size_t batch_size = kEvalBatch);

// The single-replica case, on the calling thread.
inline double EvaluateAccuracy(const nn::ModelSpec& spec,
                               nn::Sequential& model,
                               std::span<const float> params,
                               const data::Dataset& dataset,
                               std::size_t batch_size = kEvalBatch) {
  nn::Sequential* const one[] = {&model};
  return EvaluateAccuracy(spec, one, params, dataset, nullptr, batch_size);
}

}  // namespace fl
