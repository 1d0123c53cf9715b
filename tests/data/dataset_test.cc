#include "data/dataset.h"

#include <gtest/gtest.h>

#include <set>

#include "util/check.h"
#include "util/rng.h"

namespace data {
namespace {

Dataset SmallDataset() {
  Dataset d;
  d.sample_shape = {2};
  d.num_classes = 3;
  d.features = {0, 1, 10, 11, 20, 21, 30, 31};
  d.labels = {0, 1, 2, 1};
  return d;
}

TEST(DatasetTest, SizeAndSampleDim) {
  Dataset d = SmallDataset();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.sample_dim(), 2u);
}

TEST(DatasetTest, SampleReturnsCorrectSlice) {
  Dataset d = SmallDataset();
  auto s = d.Sample(2);
  EXPECT_FLOAT_EQ(s[0], 20.0f);
  EXPECT_FLOAT_EQ(s[1], 21.0f);
}

TEST(DatasetTest, SampleOutOfRangeThrows) {
  Dataset d = SmallDataset();
  EXPECT_THROW(d.Sample(4), util::CheckError);
}

TEST(MakeBatchTest, AssemblesSelectedSamples) {
  Dataset d = SmallDataset();
  std::vector<std::size_t> indices{3, 0};
  Batch batch = MakeBatch(d, indices);
  EXPECT_EQ(batch.features.shape(), (tensor::Shape{2, 2}));
  EXPECT_FLOAT_EQ(batch.features[0], 30.0f);
  EXPECT_FLOAT_EQ(batch.features[2], 0.0f);
  EXPECT_EQ(batch.labels[0], 1);
  EXPECT_EQ(batch.labels[1], 0);
}

TEST(MakeBatchTest, PreservesMultiDimSampleShape) {
  Dataset d;
  d.sample_shape = {1, 2, 2};
  d.num_classes = 2;
  d.features.assign(8, 1.0f);
  d.labels = {0, 1};
  std::vector<std::size_t> indices{0, 1};
  Batch batch = MakeBatch(d, indices);
  // Channel-major: {C, N, H, W}.
  EXPECT_EQ(batch.features.shape(), (tensor::Shape{1, 2, 2, 2}));
}

TEST(MakeBatchTest, ColourImagesBatchChannelMajor) {
  // Three {3, 1, 2} samples; sample s, channel c, column j holds
  // 100·s + 10·c + j.
  Dataset d;
  d.sample_shape = {3, 1, 2};
  d.num_classes = 2;
  for (int s = 0; s < 3; ++s) {
    for (int c = 0; c < 3; ++c) {
      for (int j = 0; j < 2; ++j) {
        d.features.push_back(static_cast<float>(100 * s + 10 * c + j));
      }
    }
  }
  d.labels = {0, 1, 0};
  std::vector<std::size_t> indices{2, 0};
  Batch batch = MakeBatch(d, indices);
  ASSERT_EQ(batch.features.shape(), (tensor::Shape{3, 2, 1, 2}));
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t k = 0; k < 2; ++k) {
      for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_EQ(batch.features.At(c, k, 0, j),
                  static_cast<float>(100 * indices[k] + 10 * c + j));
      }
    }
  }
  EXPECT_EQ(batch.labels, (std::vector<std::int64_t>{0, 0}));
}

TEST(MakeBatchTest, EmptyIndicesThrow) {
  Dataset d = SmallDataset();
  EXPECT_THROW(MakeBatch(d, {}), util::CheckError);
}

TEST(MakeMiniBatchesTest, CoversEveryIndexOnce) {
  util::RngFactory rngs(1);
  auto rng = rngs.Stream("mb");
  auto batches = MakeMiniBatches(10, 3, rng);
  EXPECT_EQ(batches.size(), 4u);
  EXPECT_EQ(batches.back().size(), 1u);
  std::set<std::size_t> seen;
  for (const auto& b : batches) {
    for (std::size_t i : b) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index";
    }
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(MakeMiniBatchesTest, ShuffleIsSeedDeterministic) {
  util::RngFactory rngs(5);
  auto r1 = rngs.Stream("mb");
  auto r2 = rngs.Stream("mb");
  EXPECT_EQ(MakeMiniBatches(20, 4, r1), MakeMiniBatches(20, 4, r2));
}

TEST(MakeMiniBatchesTest, ZeroBatchSizeThrows) {
  util::RngFactory rngs(1);
  auto rng = rngs.Stream("mb");
  EXPECT_THROW(MakeMiniBatches(10, 0, rng), util::CheckError);
}

TEST(LabelHistogramTest, CountsPerClass) {
  Dataset d = SmallDataset();
  std::vector<std::size_t> indices{0, 1, 3};
  auto hist = LabelHistogram(d, indices);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 0u);
}

}  // namespace
}  // namespace data
