// End-to-end analytic-vs-numeric gradient verification for every layer type
// through full models — the strongest correctness evidence the training
// substrate has.
#include "nn/gradient_check.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/models.h"
#include "util/rng.h"

namespace nn {
namespace {

struct GradCase {
  const char* name;
  ModelSpec spec;
  std::size_t batch;
};

class GradientCheckTest : public ::testing::TestWithParam<int> {};

std::vector<GradCase> Cases() {
  std::vector<GradCase> cases;
  cases.push_back({"mlp-1layer", MakeMlp(6, {}, 3), 4});
  cases.push_back({"mlp-2layer", MakeMlp(10, {8}, 5), 3});
  cases.push_back({"mlp-deep", MakeMlp(12, {16, 8}, 10), 2});
  cases.push_back({"lenet", MakeLeNet5Surrogate(8), 2});
  cases.push_back({"vgg", MakeVggSurrogate(8), 2});
  return cases;
}

TEST_P(GradientCheckTest, AnalyticMatchesNumeric) {
  const GradCase c = Cases()[static_cast<std::size_t>(GetParam())];
  auto model = c.spec.factory(31 + GetParam());
  util::RngFactory rngs(17);
  auto rng = rngs.Stream("gradcheck", GetParam());

  // The draw is batch-first, {N, sample...}; image models take it
  // channel-major, {C, N, H, W}, holding the same samples.
  tensor::Shape batch_shape;
  batch_shape.push_back(c.batch);
  for (std::size_t d : c.spec.sample_shape) {
    batch_shape.push_back(d);
  }
  tensor::Tensor input(batch_shape);
  input.FillNormal(0.0f, 1.0f, rng);
  if (input.rank() == 4) {
    tensor::Tensor cnhw({batch_shape[1], c.batch, batch_shape[2],
                         batch_shape[3]});
    for (std::size_t n = 0; n < c.batch; ++n) {
      for (std::size_t ch = 0; ch < batch_shape[1]; ++ch) {
        for (std::size_t i = 0; i < batch_shape[2]; ++i) {
          for (std::size_t j = 0; j < batch_shape[3]; ++j) {
            cnhw.At(ch, n, i, j) = input.At(n, ch, i, j);
          }
        }
      }
    }
    input = std::move(cnhw);
  }
  std::vector<std::int64_t> labels(c.batch);
  std::uniform_int_distribution<std::int64_t> pick(
      0, static_cast<std::int64_t>(c.spec.num_classes) - 1);
  for (auto& label : labels) {
    label = pick(rng);
  }

  // ε must stay small: larger perturbations flip max-pool argmaxes and ReLU
  // activation masks, making the numeric gradient measure a different
  // function than the analytic one differentiates.
  GradientCheckResult result =
      CheckGradients(*model, input, labels, 1e-3, 150);
  EXPECT_GE(result.checked + result.skipped,
            std::min<std::size_t>(50, model->NumParameters()));
  EXPECT_GT(result.checked, 10u);
  // float32 central differences: a few percent is the achievable bar.
  EXPECT_LT(result.max_relative_error, 5e-2)
      << "model " << c.name << " disagrees with finite differences";
}

INSTANTIATE_TEST_SUITE_P(Models, GradientCheckTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace nn
