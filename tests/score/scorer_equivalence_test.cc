// AsyncFilter's cached scoring must be indistinguishable from recomputing
// every distance from scratch: bit-identical scores for every
// configuration, every round, against the exact oracle. The pinned digests
// below then fix the scores and verdicts themselves, so a change to scoring
// or clustering that moves any result fails here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "core/async_filter.h"
#include "exact_oracle.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace core {
namespace {

constexpr std::size_t kDim = 24;

struct Grid {
  std::size_t buffer_size;
  ScoreNormalization normalization;
  MidBandPolicy mid_band;
};

// Honest updates spread over six magnitudes, every fifth update an attacker
// of one of four strengths, so the 2- and 3-means bands differ.
std::vector<fl::ModelUpdate> MakeBuffer(std::size_t n, std::size_t round,
                                        std::mt19937_64& rng) {
  std::normal_distribution<float> noise(0.0f, 0.3f);
  std::vector<fl::ModelUpdate> updates;
  for (std::size_t i = 0; i < n; ++i) {
    fl::ModelUpdate u;
    u.client_id = static_cast<int>(i);
    u.base_round = round;
    u.staleness = i % 4;
    u.num_samples = 5 + i % 7;
    const float center = (i % 5 == 4)
                             ? -1.5f * static_cast<float>(1 + i % 4)
                             : 0.4f * static_cast<float>(i % 6);
    std::vector<float> delta(kDim);
    for (float& x : delta) {
      x = center + noise(rng);
    }
    u.delta = std::move(delta);
    updates.push_back(std::move(u));
  }
  return updates;
}

defense::FilterContext Context(std::size_t round, std::mt19937_64& rng,
                               const std::vector<float>& global) {
  defense::FilterContext ctx;
  ctx.round = round;
  ctx.global_model = global;
  ctx.max_staleness = 20;
  ctx.rng = &rng;
  return ctx;
}

// Eq. 6–7 recomputed from scratch against the filter's group estimates
// (Process absorbs every arrival before scoring, so the bank after the call
// holds exactly the estimates the scores were taken against).
std::vector<double> OracleScores(const AsyncFilter& filter,
                                 const std::vector<fl::ModelUpdate>& updates,
                                 ScoreNormalization normalization) {
  const MovingAverageBank& bank = filter.bank();
  std::vector<double> own(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    own[i] = score::oracle::Distance(bank.Estimate(updates[i].staleness),
                                     updates[i].delta);
  }
  if (normalization != ScoreNormalization::kEq7CrossGroup) {
    return NormalizeOwnDistances(updates, own, normalization);
  }
  std::vector<double> scores(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    double sum_sq = 0.0;
    for (std::size_t tau : bank.Groups()) {
      const double d =
          score::oracle::Distance(bank.Estimate(tau), updates[i].delta);
      sum_sq += d * d;
    }
    scores[i] = sum_sq > 1e-24 ? own[i] / std::sqrt(sum_sq) : 0.0;
  }
  return scores;
}

TEST(ScorerEquivalenceTest, ExactAndIncrementalAreBitIdenticalAcrossGrid) {
  const std::vector<Grid> grids = {
      {4, ScoreNormalization::kGroupRms, MidBandPolicy::kAccept},
      {12, ScoreNormalization::kGroupRms, MidBandPolicy::kAccept},
      {12, ScoreNormalization::kGroupRms, MidBandPolicy::kDefer},
      {12, ScoreNormalization::kGroupRms, MidBandPolicy::kReject},
      {12, ScoreNormalization::kBufferNorm, MidBandPolicy::kAccept},
      {12, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kAccept},
      {33, ScoreNormalization::kBufferNorm, MidBandPolicy::kDefer},
      {33, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kReject},
  };
  for (const Grid& grid : grids) {
    AsyncFilterOptions options;
    options.normalization = grid.normalization;
    options.mid_band = grid.mid_band;
    AsyncFilter filter(options);
    std::mt19937_64 server_rng = util::RngFactory(77).Stream("equiv-server");
    std::mt19937_64 data_rng = util::RngFactory(77).Stream("equiv-data");
    const std::vector<float> global(kDim, 0.0f);
    for (std::size_t round = 0; round < 4; ++round) {
      SCOPED_TRACE(::testing::Message()
                   << "buffer=" << grid.buffer_size << " norm="
                   << static_cast<int>(grid.normalization) << " midband="
                   << static_cast<int>(grid.mid_band) << " round=" << round);
      const auto updates = MakeBuffer(grid.buffer_size, round, data_rng);
      const auto result =
          filter.Process(Context(round, server_rng, global), updates);
      // EXPECT_EQ on doubles: bit identity, not tolerance.
      EXPECT_EQ(result.scores,
                OracleScores(filter, updates, grid.normalization));
    }
  }
}

// Degenerate buffers must surface their reason.
TEST(ScorerEquivalenceTest, DegenerateReasonsMatch) {
  AsyncFilter filter;
  std::mt19937_64 rng = util::RngFactory(5).Stream("degenerate");
  std::vector<float> global(8, 0.0f);
  defense::FilterContext ctx;
  ctx.global_model = global;
  ctx.rng = &rng;

  // One update: buffer too small to cluster.
  std::vector<fl::ModelUpdate> one(1);
  one[0].client_id = 0;
  one[0].delta = std::vector<float>(8, 1.0f);
  one[0].num_samples = 1;
  EXPECT_EQ(filter.Process(ctx, one).reason, "buffer_too_small");

  // Identical updates: zero score spread.
  std::vector<fl::ModelUpdate> same(6);
  for (int i = 0; i < 6; ++i) {
    same[i].client_id = i;
    same[i].delta = std::vector<float>(8, 1.0f);
    same[i].num_samples = 1;
  }
  EXPECT_EQ(filter.Process(ctx, same).reason, "scores_degenerate");
}

class Fnv1a {
 public:
  void Add(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (bits >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

class AsyncFilterPinTest : public ::testing::Test {
 protected:
  void TearDown() override { tensor::kernels::ResetForcedIsa(); }
};

// Ten rounds per configuration, deferred updates re-entering the next
// buffer; the digest covers every round's scores, verdicts, aggregate and
// deferral count, per kernel ISA (the scalar and AVX2 dot products round
// differently). A mismatch means AsyncFilter's results changed.
TEST_F(AsyncFilterPinTest, TenRoundDigestsArePinned) {
  struct Pin {
    std::size_t clusters;
    ScoreNormalization normalization;
    MidBandPolicy mid_band;
    std::uint64_t scalar;
    std::uint64_t avx2;
  };
  const Pin pins[] = {
      {3, ScoreNormalization::kGroupRms, MidBandPolicy::kAccept,
       0x2d7b60e8d7cd88e5ull, 0x19b83c467d5dacf7ull},
      {3, ScoreNormalization::kGroupRms, MidBandPolicy::kDefer,
       0x1d0e12a8ace8f1e5ull, 0xc6c07d77559a4466ull},
      {3, ScoreNormalization::kBufferNorm, MidBandPolicy::kAccept,
       0x1aa4ce9326e9e109ull, 0x5a472ef5af933cbcull},
      {3, ScoreNormalization::kBufferNorm, MidBandPolicy::kDefer,
       0x034a12d673fd2e0full, 0x57c089907e6c6658ull},
      {3, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kAccept,
       0xf7f2f9a5c77f5490ull, 0x4b855ae14dcfccb0ull},
      {3, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kDefer,
       0xca90b7b90f55e2c0ull, 0xa28bcce8053be08cull},
      // 2-means has no mid band, so the policy cannot matter.
      {2, ScoreNormalization::kGroupRms, MidBandPolicy::kAccept,
       0x9585071ae4357507ull, 0xc56fbf41afaed3a9ull},
      {2, ScoreNormalization::kGroupRms, MidBandPolicy::kDefer,
       0x9585071ae4357507ull, 0xc56fbf41afaed3a9ull},
      {2, ScoreNormalization::kBufferNorm, MidBandPolicy::kAccept,
       0x1aa4ce9326e9e109ull, 0x5a472ef5af933cbcull},
      {2, ScoreNormalization::kBufferNorm, MidBandPolicy::kDefer,
       0x1aa4ce9326e9e109ull, 0x5a472ef5af933cbcull},
      {2, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kAccept,
       0xdef1ecaf72d8168bull, 0x71edd7e380d7b607ull},
      {2, ScoreNormalization::kEq7CrossGroup, MidBandPolicy::kDefer,
       0xdef1ecaf72d8168bull, 0x71edd7e380d7b607ull},
  };
  for (const auto isa :
       {tensor::kernels::Isa::kScalar, tensor::kernels::Isa::kAvx2}) {
    const bool avx2 = isa == tensor::kernels::Isa::kAvx2;
    if (avx2 && !tensor::kernels::Avx2Available()) {
      continue;
    }
    tensor::kernels::ForceIsa(isa);
    for (const Pin& pin : pins) {
      SCOPED_TRACE(::testing::Message()
                   << (avx2 ? "avx2" : "scalar")
                   << " clusters=" << pin.clusters
                   << " norm=" << static_cast<int>(pin.normalization)
                   << " midband=" << static_cast<int>(pin.mid_band));
      AsyncFilterOptions options;
      options.num_clusters = pin.clusters;
      options.normalization = pin.normalization;
      options.mid_band = pin.mid_band;
      AsyncFilter filter(options);
      std::mt19937_64 server_rng = util::RngFactory(77).Stream("pin-server");
      std::mt19937_64 data_rng = util::RngFactory(77).Stream("pin-data");
      const std::vector<float> global(kDim, 0.0f);
      std::vector<fl::ModelUpdate> carried;
      Fnv1a h;
      for (std::size_t round = 0; round < 10; ++round) {
        auto updates = MakeBuffer(20, round, data_rng);
        updates.insert(updates.end(), carried.begin(), carried.end());
        const auto result =
            filter.Process(Context(round, server_rng, global), updates);
        for (double s : result.scores) {
          h.Add(s);
        }
        for (defense::Verdict v : result.verdicts) {
          h.Add(static_cast<std::uint64_t>(v));
        }
        for (float x : result.aggregated_delta) {
          h.Add(static_cast<double>(x));
        }
        h.Add(static_cast<std::uint64_t>(result.deferred.size()));
        carried = result.deferred;
      }
      EXPECT_EQ(h.value(), avx2 ? pin.avx2 : pin.scalar);
    }
  }
}

}  // namespace
}  // namespace core
