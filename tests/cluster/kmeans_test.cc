#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace cluster {
namespace {

std::mt19937_64 Rng(std::uint64_t seed = 1) {
  return util::RngFactory(seed).Stream("km");
}

TEST(KMeansTest, SeparatesThreeObviousClusters1D) {
  std::vector<double> values{0.0, 0.1, 0.05, 5.0, 5.1, 4.9, 10.0, 10.2, 9.8};
  auto rng = Rng();
  KMeansResult r = KMeans1D(values, 3, rng);
  // All points of one block share an assignment.
  EXPECT_EQ(r.assignment[0], r.assignment[1]);
  EXPECT_EQ(r.assignment[0], r.assignment[2]);
  EXPECT_EQ(r.assignment[3], r.assignment[4]);
  EXPECT_EQ(r.assignment[6], r.assignment[7]);
  EXPECT_NE(r.assignment[0], r.assignment[3]);
  EXPECT_NE(r.assignment[3], r.assignment[6]);
  EXPECT_LT(r.inertia, 0.2);
}

TEST(KMeansTest, CentroidsNearClusterMeans) {
  std::vector<double> values{1.0, 1.2, 9.0, 9.2};
  auto rng = Rng(2);
  KMeansResult r = KMeans1D(values, 2, rng);
  std::vector<double> centroids = r.centroids;
  std::sort(centroids.begin(), centroids.end());
  EXPECT_NEAR(centroids[0], 1.1, 1e-9);
  EXPECT_NEAR(centroids[1], 9.1, 1e-9);
}

TEST(KMeansTest, KEqualsNPointsGivesZeroInertia) {
  std::vector<double> values{1.0, 2.0, 3.0};
  auto rng = Rng(4);
  KMeansResult r = KMeans1D(values, 3, rng);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, IdenticalPointsHandled) {
  std::vector<double> values(10, 4.2);
  auto rng = Rng(5);
  KMeansResult r = KMeans1D(values, 3, rng);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, EmptyInputThrows) {
  auto rng = Rng(6);
  const std::vector<double> none;
  const std::vector<double> one{1.0};
  EXPECT_THROW(KMeans1D(none, 2, rng), util::CheckError);
  EXPECT_THROW(KMeans1D(one, 0, rng), util::CheckError);
}

class KMeansInertiaTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansInertiaTest, InertiaIsNonIncreasingInK) {
  // Best-of-restarts k-means must not get worse when allowed more
  // centroids (a classic sanity property of the objective).
  auto rng = Rng(20 + GetParam());
  std::uniform_real_distribution<double> uniform(0.0, 10.0);
  std::vector<double> values(40);
  for (double& v : values) {
    v = uniform(rng);
  }
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= GetParam(); ++k) {
    KMeansOptions options;
    options.restarts = 8;
    double inertia = KMeans1D(values, k, rng, options).inertia;
    EXPECT_LE(inertia, prev * (1.0 + 1e-9));
    prev = inertia;
  }
}

INSTANTIATE_TEST_SUITE_P(MaxK, KMeansInertiaTest, ::testing::Values(3u, 5u));

std::vector<double> ThreeBlobs(std::mt19937_64& rng, std::size_t per_blob) {
  std::vector<double> values;
  for (double center : {0.0, 5.0, 10.0}) {
    std::normal_distribution<double> dist(center, 0.3);
    for (std::size_t i = 0; i < per_blob; ++i) {
      values.push_back(dist(rng));
    }
  }
  return values;
}

TEST(KMeansWarmStartTest, EmptyWarmStartIsTheColdPath) {
  std::mt19937_64 data_rng(1);
  const auto values = ThreeBlobs(data_rng, 12);

  std::mt19937_64 rng_a(7);
  std::mt19937_64 rng_b(7);
  const std::vector<double> no_centroids;
  const auto from_empty = KMeans1D(values, 3, rng_a, {}, no_centroids);
  const auto cold = KMeans1D(values, 3, rng_b);
  EXPECT_EQ(from_empty.assignment, cold.assignment);
  EXPECT_EQ(from_empty.centroids, cold.centroids);
  EXPECT_EQ(rng_a, rng_b);
}

TEST(KMeansWarmStartTest, WarmCallDrawsNoRandomness) {
  std::mt19937_64 data_rng(2);
  const auto values = ThreeBlobs(data_rng, 10);

  std::mt19937_64 rng(11);
  const auto cold = KMeans1D(values, 3, rng);

  // Started from its own converged centroids, the RNG must not advance.
  std::mt19937_64 before = rng;
  const auto warm = KMeans1D(values, 3, rng, {}, cold.centroids);
  EXPECT_EQ(rng, before);
  // And it reproduces the stable clustering of the same data.
  EXPECT_EQ(warm.centroids, cold.centroids);
  EXPECT_EQ(warm.assignment, cold.assignment);
}

TEST(KMeansWarmStartTest, KChangeFallsBackToColdPath) {
  std::mt19937_64 data_rng(3);
  const auto values = ThreeBlobs(data_rng, 10);
  const std::vector<double> three{0.0, 5.0, 10.0};

  // Asking for k=2 cannot reuse 3 centroids: cold path.
  std::mt19937_64 rng_a(17);
  std::mt19937_64 rng_b(17);
  const auto result = KMeans1D(values, 2, rng_a, {}, three);
  const auto cold = KMeans1D(values, 2, rng_b);
  EXPECT_EQ(result.centroids, cold.centroids);
  EXPECT_EQ(rng_a, rng_b);
}

TEST(KMeansWarmStartTest, TooFewValuesForWarmStartUsesColdPath) {
  const std::vector<double> three{0.0, 5.0, 10.0};
  const std::vector<double> values = {1.0, 2.0};
  std::mt19937_64 rng_a(19);
  std::mt19937_64 rng_b(19);
  const auto result = KMeans1D(values, 3, rng_a, {}, three);
  const auto cold = KMeans1D(values, 3, rng_b);
  EXPECT_EQ(result.centroids, cold.centroids);
  EXPECT_EQ(rng_a, rng_b);
}

TEST(GapStatisticTest, DetectsNoStructureInUniformData) {
  auto rng = Rng(10);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> values(60);
  for (double& v : values) {
    v = uniform(rng);
  }
  // Uniform 1-D data: the gap statistic should prefer k = 1 most of the time.
  std::size_t k = GapStatisticK(values, 3, rng);
  EXPECT_LE(k, 2u);
}

TEST(GapStatisticTest, DetectsTwoSeparatedBlobs) {
  auto rng = Rng(11);
  std::normal_distribution<double> a(0.0, 0.05), b(10.0, 0.05);
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) {
    values.push_back(a(rng));
    values.push_back(b(rng));
  }
  EXPECT_GE(GapStatisticK(values, 3, rng), 2u);
}

TEST(GapStatisticTest, ConstantScoresGiveOneCluster) {
  auto rng = Rng(12);
  std::vector<double> values(20, 0.5);
  EXPECT_EQ(GapStatisticK(values, 3, rng), 1u);
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

// FNV-1a over a clustering's centroids, assignment, inertia and iteration
// count, plus the next RNG draw so the number of k-means++ draws is pinned
// too.
std::uint64_t Digest(const KMeansResult& r, std::mt19937_64& rng) {
  Fnv1a h;
  for (double c : r.centroids) {
    h.Add(c);
  }
  for (std::size_t a : r.assignment) {
    h.Add(static_cast<std::uint64_t>(a));
  }
  h.Add(r.inertia);
  h.Add(static_cast<std::uint64_t>(r.iterations));
  h.Add(static_cast<std::uint64_t>(rng()));
  return h.value();
}

std::vector<double> Blobs(std::uint64_t seed, std::vector<double> centers,
                          std::size_t per_blob) {
  std::mt19937_64 rng(seed);
  std::vector<double> values;
  for (std::size_t i = 0; i < per_blob; ++i) {
    for (double c : centers) {
      values.push_back(std::normal_distribution<double>(c, 0.4)(rng));
    }
  }
  return values;
}

// Bit-exact outputs of fixed-seed clusterings, cold and warm, including the
// degenerate shapes (duplicates, n < k, n = 1, empty-cluster reseeds). A
// mismatch means k-means results changed, and with them AsyncFilter's and
// FLDetector's verdicts.
TEST(KMeansPinTest, DigestsArePinned) {
  struct Pin {
    const char* name;
    std::vector<double> values;
    std::size_t k;
    std::uint64_t seed;
    std::vector<double> warm_start;
    KMeansOptions options;
    std::uint64_t digest;
  };
  const auto two = Blobs(11, {1.0, 4.0}, 15);
  const auto three = Blobs(12, {0.0, 5.0, 10.0}, 15);
  KMeansOptions short_run;
  short_run.max_iterations = 1;
  short_run.restarts = 2;
  const std::vector<Pin> pins = {
      {"k2_blobs", two, 2, 1, {}, {}, 0x03228f566022c6e7ull},
      {"k3_blobs", three, 3, 2, {}, {}, 0xbb0c022bd98576dbull},
      {"k3_duplicates", {1, 1, 1, 2, 2, 5, 5, 5, 5}, 3, 3, {}, {},
       0x3999e2e623e7858aull},
      {"k3_n2", {0.5, 2.0}, 3, 4, {}, {}, 0xc8608b3cb62e0cdbull},
      {"k2_n1", {3.25}, 2, 5, {}, {}, 0xec098e3fb0b72fc0ull},
      {"k3_identical_reseed", std::vector<double>(10, 4.2), 3, 6, {}, {},
       0x4ca4cd63ce4a3072ull},
      {"k3_one_iteration", three, 3, 7, {}, short_run, 0xf5932b16fc13770dull},
      {"warm_k3_converged", three, 3, 8, {0.1, 5.1, 9.9}, {},
       0x513786d1cb76d220ull},
      {"warm_k3_empty_reseed", three, 3, 9, {0.0, 100.0, 5.0}, {},
       0xbe8767e4fe535580ull},
      {"warm_k2", two, 2, 10, {2.0, 3.0}, {}, 0xf69ccc2f4c31b9ecull},
      {"warm_too_few_values", {1.0, 2.0}, 3, 11, {0.0, 5.0, 10.0}, {},
       0x0d199fcaf9496b9eull},
      {"warm_k_mismatch", three, 2, 12, {0.0, 5.0, 10.0}, {},
       0xcb41ca40c0eb11acull},
  };
  for (const Pin& pin : pins) {
    std::mt19937_64 rng(pin.seed);
    const KMeansResult r =
        KMeans1D(pin.values, pin.k, rng, pin.options, pin.warm_start);
    EXPECT_EQ(Digest(r, rng), pin.digest) << pin.name;
  }

  std::mt19937_64 rng(13);
  const std::size_t k = GapStatisticK(two, 3, rng);
  Fnv1a h;
  h.Add(static_cast<std::uint64_t>(k));
  h.Add(static_cast<std::uint64_t>(rng()));
  EXPECT_EQ(h.value(), 0x024f0a8bc785c71bull) << "gap statistic, k=" << k;
}

}  // namespace
}  // namespace cluster
