// 1-D k-means clustering.
//
// AsyncFilter's attacker identification runs 3-means (and the Fig. 7
// ablation 2-means) over 1-D suspicious scores; FLDetector runs k-means with
// a gap statistic over 1-D per-client scores. Both paths share this module,
// and neither needs more than one dimension.
#pragma once

#include <cstddef>
#include <random>
#include <span>
#include <vector>

namespace cluster {

struct KMeansResult {
  std::vector<double> centroids;        // one per cluster
  std::vector<std::size_t> assignment;  // per-value centroid index
  double inertia = 0.0;                 // sum of squared distances
  std::size_t iterations = 0;
};

struct KMeansOptions {
  std::size_t max_iterations = 100;
  std::size_t restarts = 4;  // best-of-n k-means++ restarts
};

// Clusters `values` (non-empty) into k groups with Lloyd iterations.
//
// Cold start (the default): best of `options.restarts` k-means++ seedings.
// If k exceeds the number of distinct values some clusters start empty and
// are re-seeded on the farthest value.
//
// Warm start: when `warm_start` holds exactly k centroids and there are at
// least k values, Lloyd starts from those centroids instead — no k-means++
// seeding, no restarts, no RNG draws. AsyncFilter passes the previous
// round's centroids here; consecutive rounds see nearly the same score
// distribution, so the warm run converges in a couple of iterations.
KMeansResult KMeans1D(std::span<const double> values, std::size_t k,
                      std::mt19937_64& rng, const KMeansOptions& options = {},
                      std::span<const double> warm_start = {});

// Tibshirani gap statistic over 1-D values: picks k in [1, max_k] comparing
// log-inertia against uniform reference draws. FLDetector uses this to
// decide whether an attack is present (k = 1 vs k >= 2).
std::size_t GapStatisticK(std::span<const double> values, std::size_t max_k,
                          std::mt19937_64& rng,
                          std::size_t reference_draws = 10);

}  // namespace cluster
