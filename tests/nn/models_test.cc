#include "nn/models.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace nn {
namespace {

TEST(ModelsTest, LeNetSurrogateShapes) {
  ModelSpec spec = MakeLeNet5Surrogate(12);
  EXPECT_EQ(spec.sample_shape, (tensor::Shape{1, 12, 12}));
  auto model = spec.factory(1);
  tensor::Tensor in({1, 3, 12, 12});  // {C, N, H, W}
  tensor::Tensor out = model->Forward(in);
  EXPECT_EQ(out.dim(0), 3u);
  EXPECT_EQ(out.dim(1), 10u);
}

TEST(ModelsTest, VggSurrogateShapes) {
  ModelSpec spec = MakeVggSurrogate(8);
  EXPECT_EQ(spec.sample_shape, (tensor::Shape{3, 8, 8}));
  auto model = spec.factory(1);
  tensor::Tensor in({3, 2, 8, 8});  // {C, N, H, W}
  tensor::Tensor out = model->Forward(in);
  EXPECT_EQ(out.dim(0), 2u);
  EXPECT_EQ(out.dim(1), 10u);
}

TEST(ModelsTest, MlpShapes) {
  ModelSpec spec = MakeMlp(20, {16, 8}, 4);
  auto model = spec.factory(1);
  tensor::Tensor in({5, 20});
  tensor::Tensor out = model->Forward(in);
  EXPECT_EQ(out.dim(1), 4u);
}

TEST(ModelsTest, FactoryIsSeedDeterministic) {
  ModelSpec spec = MakeLeNet5Surrogate(8);
  auto a = spec.factory(77);
  auto b = spec.factory(77);
  auto c = spec.factory(78);
  EXPECT_EQ(a->GetFlatParams(), b->GetFlatParams());
  EXPECT_NE(a->GetFlatParams(), c->GetFlatParams());
}

TEST(ModelsTest, SideMustBeDivisibleByFour) {
  EXPECT_THROW(MakeLeNet5Surrogate(10), util::CheckError);
  EXPECT_THROW(MakeVggSurrogate(9), util::CheckError);
}

TEST(ModelsTest, ParameterCountsAreModest) {
  // Guard against accidental blow-ups that would wreck bench runtimes.
  auto lenet = MakeLeNet5Surrogate(12).factory(1);
  auto vgg = MakeVggSurrogate(8).factory(1);
  EXPECT_LT(lenet->NumParameters(), 20000u);
  EXPECT_LT(vgg->NumParameters(), 20000u);
  EXPECT_GT(lenet->NumParameters(), 1000u);
  EXPECT_GT(vgg->NumParameters(), 1000u);
}

TEST(ModelsTest, MlpZeroInputDimThrows) {
  EXPECT_THROW(MakeMlp(0, {4}), util::CheckError);
}

}  // namespace
}  // namespace nn
