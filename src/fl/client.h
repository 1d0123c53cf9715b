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

namespace fl {

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

// Server-side accuracy evaluation of flat parameters on a dataset. The
// result does not depend on batch_size (each sample's logits are computed
// independently of the rest of its batch); the default keeps the Conv2d
// im2col arenas small enough to stay in L2.
double EvaluateAccuracy(const nn::ModelSpec& spec, nn::Sequential& model,
                        std::span<const float> params,
                        const data::Dataset& dataset,
                        std::size_t batch_size = 32);

}  // namespace fl
