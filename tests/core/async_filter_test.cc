#include "core/async_filter.h"

#include <gtest/gtest.h>

#include <random>

#include "util/check.h"
#include "util/rng.h"
#include "util/serial.h"

namespace core {
namespace {

using defense::AggregationResult;
using defense::FilterContext;
using defense::Verdict;

fl::ModelUpdate Update(int client, std::size_t staleness,
                       std::vector<float> delta, bool malicious = false,
                       std::size_t samples = 10) {
  fl::ModelUpdate u;
  u.client_id = client;
  u.base_round = 0;
  u.staleness = staleness;
  u.delta = std::move(delta);
  u.is_malicious_truth = malicious;
  u.num_samples = samples;
  return u;
}

class AsyncFilterTest : public ::testing::Test {
 protected:
  std::mt19937_64 rng_ = util::RngFactory(7).Stream("af-test");
  std::vector<float> global_ = std::vector<float>(4, 0.0f);

  FilterContext Context(std::size_t round = 0) {
    FilterContext ctx;
    ctx.round = round;
    ctx.global_model = global_;
    ctx.max_staleness = 20;
    ctx.rng = &rng_;
    return ctx;
  }

  // A buffer with a tight benign cluster and `malicious` blatant outliers.
  std::vector<fl::ModelUpdate> MixedBuffer(std::size_t benign,
                                           std::size_t malicious,
                                           std::uint64_t seed = 3) {
    auto rng = util::RngFactory(seed).Stream("buffer");
    std::normal_distribution<float> noise(0.0f, 0.1f);
    std::vector<fl::ModelUpdate> updates;
    for (std::size_t i = 0; i < benign; ++i) {
      updates.push_back(Update(static_cast<int>(i), i % 2,
                               {1.0f + noise(rng), 1.0f + noise(rng),
                                1.0f + noise(rng), 1.0f + noise(rng)}));
    }
    for (std::size_t i = 0; i < malicious; ++i) {
      updates.push_back(Update(static_cast<int>(benign + i), i % 2,
                               {-9.0f + noise(rng), -9.0f + noise(rng),
                                -9.0f + noise(rng), -9.0f + noise(rng)},
                               true));
    }
    return updates;
  }
};

TEST_F(AsyncFilterTest, RejectsBlatantOutliers) {
  AsyncFilter filter;
  auto updates = MixedBuffer(16, 4);
  AggregationResult result = filter.Process(Context(), updates);
  ASSERT_EQ(result.verdicts.size(), updates.size());
  std::size_t malicious_rejected = 0, benign_rejected = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (result.verdicts[i] == Verdict::kRejected) {
      (updates[i].is_malicious_truth ? malicious_rejected : benign_rejected)++;
    }
  }
  EXPECT_EQ(malicious_rejected, 4u);
  EXPECT_LE(benign_rejected, 2u);
}

TEST_F(AsyncFilterTest, AggregateExcludesRejectedMass) {
  AsyncFilter filter;
  auto updates = MixedBuffer(16, 4);
  AggregationResult result = filter.Process(Context(), updates);
  ASSERT_FALSE(result.aggregated_delta.empty());
  // Poison pulls toward -9; a clean aggregate stays near +1.
  for (float v : result.aggregated_delta) {
    EXPECT_GT(v, 0.5f);
  }
}

TEST_F(AsyncFilterTest, CleanBufferMostlyAccepted) {
  AsyncFilter filter;
  auto updates = MixedBuffer(20, 0);
  AggregationResult result = filter.Process(Context(), updates);
  std::size_t rejected = 0;
  for (auto v : result.verdicts) {
    rejected += (v == Verdict::kRejected) ? 1 : 0;
  }
  // 3-means still labels a top band, but it must stay a minority.
  EXPECT_LE(rejected, updates.size() / 2);
  ASSERT_FALSE(result.aggregated_delta.empty());
}

TEST_F(AsyncFilterTest, IdenticalUpdatesAllAccepted) {
  AsyncFilter filter;
  std::vector<fl::ModelUpdate> updates;
  for (int i = 0; i < 8; ++i) {
    updates.push_back(Update(i, 0, {1.0f, 1.0f, 1.0f, 1.0f}));
  }
  AggregationResult result = filter.Process(Context(), updates);
  for (auto v : result.verdicts) {
    EXPECT_EQ(v, Verdict::kAccepted);
  }
}

TEST_F(AsyncFilterTest, TinyBufferAcceptsAll) {
  AsyncFilter filter;
  std::vector<fl::ModelUpdate> updates;
  updates.push_back(Update(0, 0, {1.0f, 0.0f, 0.0f, 0.0f}));
  AggregationResult result = filter.Process(Context(), updates);
  EXPECT_EQ(result.verdicts[0], Verdict::kAccepted);
}

TEST_F(AsyncFilterTest, DeferPolicyRoutesMidBandToDeferred) {
  AsyncFilterOptions options;
  options.mid_band = MidBandPolicy::kDefer;
  AsyncFilter filter(options);
  auto updates = MixedBuffer(14, 3);
  // Add a mid-band-ish cluster between honest and attacker.
  for (int i = 0; i < 3; ++i) {
    updates.push_back(Update(100 + i, 0, {3.5f, 3.5f, 3.5f, 3.5f}));
  }
  AggregationResult result = filter.Process(Context(), updates);
  std::size_t deferred = 0;
  for (auto v : result.verdicts) {
    deferred += (v == Verdict::kDeferred) ? 1 : 0;
  }
  EXPECT_EQ(result.deferred.size(), deferred);
  EXPECT_GT(deferred, 0u);
}

TEST_F(AsyncFilterTest, DeferredUpdatesEventuallyRejected) {
  AsyncFilterOptions options;
  options.mid_band = MidBandPolicy::kDefer;
  options.max_deferrals = 1;
  AsyncFilter filter(options);
  auto updates = MixedBuffer(14, 3);
  for (int i = 0; i < 3; ++i) {
    updates.push_back(Update(100 + i, 0, {3.5f, 3.5f, 3.5f, 3.5f}));
  }
  AggregationResult first = filter.Process(Context(0), updates);
  ASSERT_FALSE(first.deferred.empty());
  // Feed the same mid-band updates back: with max_deferrals = 1 they must
  // not be deferred a second time.
  auto again = updates;
  AggregationResult second = filter.Process(Context(1), again);
  for (const auto& d : second.deferred) {
    for (const auto& f : first.deferred) {
      EXPECT_FALSE(d.client_id == f.client_id &&
                   d.base_round == f.base_round)
          << "update deferred beyond max_deferrals";
    }
  }
}

TEST_F(AsyncFilterTest, RejectPolicyDropsMidBand) {
  AsyncFilterOptions options;
  options.mid_band = MidBandPolicy::kReject;
  AsyncFilter filter(options);
  auto updates = MixedBuffer(14, 3);
  for (int i = 0; i < 3; ++i) {
    updates.push_back(Update(100 + i, 0, {3.5f, 3.5f, 3.5f, 3.5f}));
  }
  AggregationResult result = filter.Process(Context(), updates);
  EXPECT_TRUE(result.deferred.empty());
}

TEST_F(AsyncFilterTest, TwoMeansVariantHasNoMidBand) {
  AsyncFilterOptions options;
  options.num_clusters = 2;
  AsyncFilter filter(options);
  auto updates = MixedBuffer(16, 4);
  AggregationResult result = filter.Process(Context(), updates);
  for (auto v : result.verdicts) {
    EXPECT_NE(v, Verdict::kDeferred);
  }
  EXPECT_EQ(filter.Name(), "AsyncFilter-2means");
}

TEST_F(AsyncFilterTest, NeverRejectsEverything) {
  AsyncFilter filter;
  // Two extreme blobs: whatever the clustering does, something is accepted.
  std::vector<fl::ModelUpdate> updates;
  for (int i = 0; i < 5; ++i) {
    updates.push_back(Update(i, 0, {100.0f, 0.0f, 0.0f, 0.0f}));
    updates.push_back(Update(10 + i, 1, {-100.0f, 0.0f, 0.0f, 0.0f}));
  }
  AggregationResult result = filter.Process(Context(), updates);
  bool any_accepted = false;
  for (auto v : result.verdicts) {
    any_accepted |= (v == Verdict::kAccepted);
  }
  EXPECT_TRUE(any_accepted);
  EXPECT_FALSE(result.aggregated_delta.empty());
}

TEST_F(AsyncFilterTest, ResetClearsCrossRoundState) {
  AsyncFilter filter;
  auto updates = MixedBuffer(10, 2);
  filter.Process(Context(0), updates);
  EXPECT_FALSE(filter.bank().Groups().empty());
  filter.Reset();
  EXPECT_TRUE(filter.bank().Groups().empty());
}

TEST_F(AsyncFilterTest, StatePersistsAcrossRoundsWithoutReset) {
  AsyncFilter filter;
  auto updates = MixedBuffer(10, 2);
  filter.Process(Context(0), updates);
  std::size_t count_round0 = filter.bank().ObservationCount(0);
  filter.Process(Context(1), updates);
  EXPECT_GT(filter.bank().ObservationCount(0), count_round0);
}

TEST_F(AsyncFilterTest, MissingRngThrows) {
  AsyncFilter filter;
  auto updates = MixedBuffer(6, 0);
  FilterContext ctx = Context();
  ctx.rng = nullptr;
  EXPECT_THROW(filter.Process(ctx, updates), util::CheckError);
}

TEST_F(AsyncFilterTest, InvalidClusterCountThrows) {
  AsyncFilterOptions options;
  options.num_clusters = 1;
  EXPECT_THROW(AsyncFilter{options}, util::CheckError);
  options.num_clusters = 4;
  EXPECT_THROW(AsyncFilter{options}, util::CheckError);
}

TEST_F(AsyncFilterTest, WeightedAggregateUsesSampleCounts) {
  AsyncFilter filter;
  std::vector<fl::ModelUpdate> updates;
  // Two identical-staleness updates, very different weights; no attackers.
  updates.push_back(Update(0, 0, {0.0f, 0.0f, 0.0f, 0.0f}, false, 90));
  updates.push_back(Update(1, 0, {1.0f, 1.0f, 1.0f, 1.0f}, false, 10));
  AggregationResult result = filter.Process(Context(), updates);
  ASSERT_FALSE(result.aggregated_delta.empty());
  EXPECT_NEAR(result.aggregated_delta[0], 0.1f, 0.02f);
}

// The warm-start centroids checkpoint as a U64 count and one length-1
// DoubleVec per centroid (the layout of earlier N-D checkpoints, so those
// keep loading), and a load/save cycle reproduces the bytes exactly.
TEST_F(AsyncFilterTest, WarmCentroidsCheckpointAsLengthOneVectors) {
  AsyncFilter filter;
  filter.Process(Context(0), MixedBuffer(10, 3));
  util::serial::Writer w;
  filter.SaveState(w);
  const std::vector<std::uint8_t> bytes = w.Take();

  util::serial::Reader r(bytes);
  MovingAverageBank bank;
  bank.Load(r);
  EXPECT_EQ(r.U64(), 0u);  // empty deferral ledger
  ASSERT_EQ(r.U64(), 3u);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(r.DoubleVec().size(), 1u);
  }
  EXPECT_TRUE(r.AtEnd());

  AsyncFilter resumed;
  util::serial::Reader again(bytes);
  resumed.LoadState(again);
  util::serial::Writer w2;
  resumed.SaveState(w2);
  EXPECT_EQ(w2.Take(), bytes);
}

// A restored filter takes the same warm clustering branch as the live one:
// identical results, and neither draws from its (differently seeded) RNG.
TEST_F(AsyncFilterTest, ResumedFilterTakesIdenticalWarmBranch) {
  AsyncFilter live;
  live.Process(Context(0), MixedBuffer(10, 3, 4));
  util::serial::Writer w;
  live.SaveState(w);
  const std::vector<std::uint8_t> bytes = w.Take();
  AsyncFilter resumed;
  util::serial::Reader r(bytes);
  resumed.LoadState(r);

  const auto next = MixedBuffer(10, 3, 5);
  std::mt19937_64 rng_a(29);
  std::mt19937_64 rng_b(31);
  const std::mt19937_64 before_a = rng_a;
  const std::mt19937_64 before_b = rng_b;
  FilterContext ctx_a = Context(1);
  ctx_a.rng = &rng_a;
  FilterContext ctx_b = Context(1);
  ctx_b.rng = &rng_b;
  const AggregationResult from_live = live.Process(ctx_a, next);
  const AggregationResult from_resumed = resumed.Process(ctx_b, next);
  EXPECT_EQ(from_live.scores, from_resumed.scores);
  EXPECT_EQ(from_live.verdicts, from_resumed.verdicts);
  EXPECT_EQ(rng_a, before_a);
  EXPECT_EQ(rng_b, before_b);
}

}  // namespace
}  // namespace core
