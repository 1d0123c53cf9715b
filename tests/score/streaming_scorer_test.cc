// Property tests for the streaming scorer: its cached answers must be
// bit-identical to the exact oracle (tests/score/exact_oracle.h) after EVERY
// mutation in arbitrary insert/evict/reference-update sequences.
#include "score/scorer.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "exact_oracle.h"

namespace score {
namespace {

std::vector<float> RandomVec(std::mt19937_64& rng, std::size_t dim) {
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(dim);
  for (float& x : v) {
    x = dist(rng);
  }
  return v;
}

TEST(StreamingScorerTest, SlotLifecycleAndRecycling) {
  StreamingScorer scorer;
  std::mt19937_64 rng(1);
  auto a = RandomVec(rng, 16);
  auto b = RandomVec(rng, 16);
  const int sa = scorer.Insert(a);
  const int sb = scorer.Insert(b);
  EXPECT_NE(sa, sb);
  EXPECT_EQ(scorer.size(), 2u);
  EXPECT_TRUE(scorer.IsLive(sa));
  scorer.Evict(sa);
  EXPECT_FALSE(scorer.IsLive(sa));
  EXPECT_EQ(scorer.size(), 1u);
  // The freed slot id is recycled.
  auto c = RandomVec(rng, 16);
  const int sc = scorer.Insert(c);
  EXPECT_EQ(sc, sa);
  EXPECT_TRUE(scorer.IsLive(sc));
}

TEST(StreamingScorerTest, ReattachKeepsCachedAnswers) {
  StreamingScorer scorer;
  std::mt19937_64 rng(2);
  auto a = RandomVec(rng, 64);
  auto ref = RandomVec(rng, 64);
  const int slot = scorer.Insert(a);
  scorer.SetReference(9, ref);
  const double norm_before = scorer.SquaredNorm(slot);
  const double dist_before = scorer.DistanceToReference(9, slot);
  // Rebind to a different allocation holding identical contents.
  std::vector<float> copy = a;
  scorer.Reattach(slot, copy);
  EXPECT_EQ(scorer.SquaredNorm(slot), norm_before);
  EXPECT_EQ(scorer.DistanceToReference(9, slot), dist_before);
  EXPECT_EQ(scorer.Delta(slot).data(), copy.data());
}

TEST(StreamingScorerTest, ReferenceReplacementInvalidatesCachedDistances) {
  StreamingScorer scorer;
  std::mt19937_64 rng(3);
  auto a = RandomVec(rng, 32);
  auto ref1 = RandomVec(rng, 32);
  auto ref2 = RandomVec(rng, 32);
  const int slot = scorer.Insert(a);
  scorer.SetReference(1, ref1);
  const double d1 = scorer.DistanceToReference(1, slot);
  scorer.SetReference(1, ref2);
  const double d2 = scorer.DistanceToReference(1, slot);
  EXPECT_NE(d1, d2);
  // And the fresh answer matches the exact oracle on the new reference.
  EXPECT_EQ(oracle::Distance(ref2, a), d2);
}

TEST(StreamingScorerTest, SelfDistanceIsExactlyZero) {
  StreamingScorer scorer;
  std::mt19937_64 rng(4);
  auto a = RandomVec(rng, 128);
  const int slot = scorer.Insert(a);
  EXPECT_EQ(scorer.PairwiseSquaredDistance(slot, slot), 0.0);
}

// The core property: drive the scorer through a randomized mutation
// sequence and demand bit equality with the oracle on every query after
// every mutation.
TEST(StreamingScorerPropertyTest, IncrementalMatchesExactOnRandomSequences) {
  constexpr std::size_t kDim = 48;
  constexpr std::size_t kRefs = 4;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 rng(1000 + seed);
    StreamingScorer incremental;

    // storage[slot] owns the floats the scorer borrows for that slot.
    std::map<int, std::vector<float>> storage;
    std::vector<std::vector<float>> refs;
    for (std::size_t k = 0; k < kRefs; ++k) {
      refs.push_back(RandomVec(rng, kDim));
      incremental.SetReference(k, refs.back());
    }

    std::vector<int> live;
    for (int step = 0; step < 60; ++step) {
      const double roll = std::uniform_real_distribution<double>(0, 1)(rng);
      if (live.empty() || (roll < 0.55 && live.size() < 24)) {
        auto v = RandomVec(rng, kDim);
        const int slot = incremental.Insert(v);
        storage[slot] = std::move(v);
        incremental.Reattach(slot, storage[slot]);
        live.push_back(slot);
      } else if (roll < 0.8) {
        const std::size_t pick = std::uniform_int_distribution<std::size_t>(
            0, live.size() - 1)(rng);
        const int slot = live[pick];
        incremental.Evict(slot);
        storage.erase(slot);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const std::size_t k =
            std::uniform_int_distribution<std::size_t>(0, kRefs - 1)(rng);
        refs[k] = RandomVec(rng, kDim);
        incremental.SetReference(k, refs[k]);
      }

      ASSERT_EQ(incremental.size(), live.size());
      for (int a : live) {
        const std::vector<float>& va = storage.at(a);
        ASSERT_EQ(incremental.SquaredNorm(a), oracle::SquaredNorm(va))
            << "seed " << seed << " step " << step;
        for (std::size_t k = 0; k < kRefs; ++k) {
          ASSERT_EQ(incremental.DistanceToReference(k, a),
                    oracle::Distance(refs[k], va))
              << "seed " << seed << " step " << step;
        }
        for (int b : live) {
          const std::vector<float>& vb = storage.at(b);
          // A slot's self-dot is its cached norm; its self-distance is 0.
          ASSERT_EQ(incremental.Dot(a, b), a == b ? oracle::SquaredNorm(va)
                                                  : oracle::Dot(va, vb))
              << "seed " << seed << " step " << step;
          ASSERT_EQ(incremental.PairwiseSquaredDistance(a, b),
                    a == b ? 0.0 : oracle::SquaredDistance(va, vb))
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace score
