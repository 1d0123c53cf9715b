// Pins the exact bits of a local training job.
//
// Every optimisation of the nn/tensor training step is required to leave the
// arithmetic untouched, so a fixed-seed Client::TrainOnce delta must hash to
// the same value forever (per kernel ISA: the scalar and AVX2+FMA GEMM
// micro-kernels round differently). A mismatch here means results changed:
// every final accuracy and detection number downstream moves with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <ostream>
#include <random>
#include <vector>

#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "tensor/kernels.h"

namespace nn {
namespace {

std::uint64_t Fnv1a(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (float v : values) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// One two-epoch local job on 100 synthetic samples; the partition is not a
// multiple of the batch, so the ragged last batch is covered too.
std::uint64_t TrainDigest(data::Profile profile, std::size_t side,
                          std::size_t batch, OptimizerConfig optimizer) {
  data::SyntheticGenerator generator(data::MakeProfileSpec(profile, side), 7);
  const data::Dataset train = generator.Generate(100, "train");
  std::vector<std::size_t> partition(train.size());
  std::iota(partition.begin(), partition.end(), 0);
  const ModelSpec spec = fl::ModelForProfile(profile, side);
  fl::Client client(0, &train, partition, spec, /*model_seed=*/11);
  const std::vector<float> base = spec.factory(11)->GetFlatParams();

  fl::LocalTrainConfig config;
  config.epochs = 2;
  config.batch_size = batch;
  config.optimizer = optimizer;
  std::mt19937_64 rng(13);
  return Fnv1a(client.TrainOnce(base, config, rng));
}

struct Pin {
  tensor::kernels::Isa isa;
  std::uint64_t lenet;
  std::uint64_t vgg;
};

// Recorded with the branchy ReLU/MaxPool and the packed-only GEMM, so a pass
// also shows that the branch-free layers and the direct GEMM path left every
// bit of training unchanged.
constexpr Pin kPins[] = {
    {tensor::kernels::Isa::kScalar, 0x6daceb372fb70707ull,
     0x48ca0f96a99fc983ull},
    {tensor::kernels::Isa::kAvx2, 0x2f93730e4f292b1full,
     0x0bb92dcaa4c9f91aull},
};

void PrintTo(const Pin& pin, std::ostream* os) {
  *os << (pin.isa == tensor::kernels::Isa::kAvx2 ? "avx2" : "scalar");
}

class TrainingPinTest : public ::testing::TestWithParam<Pin> {
 protected:
  void TearDown() override { tensor::kernels::ResetForcedIsa(); }
};

TEST_P(TrainingPinTest, TrainOnceDeltaIsBitIdentical) {
  const Pin pin = GetParam();
  if (pin.isa == tensor::kernels::Isa::kAvx2 &&
      !tensor::kernels::Avx2Available()) {
    GTEST_SKIP() << "no AVX2 on this machine";
  }
  tensor::kernels::ForceIsa(pin.isa);
  EXPECT_EQ(TrainDigest(data::Profile::kFashionMnist, 12, 32,
                        {OptimizerKind::kSgd, 0.01, 0.9, 0.0}),
            pin.lenet)
      << "LeNet (FashionMNIST, 12 px, SGD, batch 32)";
  EXPECT_EQ(TrainDigest(data::Profile::kCifar10, 8, 64,
                        {OptimizerKind::kAdam, 0.0015, 0.0, 0.0}),
            pin.vgg)
      << "VGG (CIFAR-10, 8 px, Adam, batch 64)";
}

INSTANTIATE_TEST_SUITE_P(
    Isas, TrainingPinTest, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return info.param.isa == tensor::kernels::Isa::kAvx2 ? "avx2" : "scalar";
    });

}  // namespace
}  // namespace nn
