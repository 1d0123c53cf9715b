#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace cluster {
namespace {

double SquaredDist(double a, double b) {
  const double d = a - b;
  return d * d;
}

// k-means++ seeding.
std::vector<double> SeedCentroids(std::span<const double> values,
                                  std::size_t k, std::mt19937_64& rng) {
  std::vector<double> centroids;
  centroids.reserve(k);
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  centroids.push_back(values[pick(rng)]);
  std::vector<double> dist2(values.size());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (double c : centroids) {
        best = std::min(best, SquaredDist(values[i], c));
      }
      dist2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All values coincide with existing centroids; duplicate one.
      centroids.push_back(values[pick(rng)]);
      continue;
    }
    std::uniform_real_distribution<double> uniform(0.0, total);
    double target = uniform(rng);
    std::size_t chosen = values.size() - 1;
    double acc = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      acc += dist2[i];
      if (acc >= target) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(values[chosen]);
  }
  return centroids;
}

// Lloyd iterations from the given seed centroids; shared by the k-means++
// restarts and the warm start.
KMeansResult Lloyd(std::span<const double> values,
                   std::vector<double> seed_centroids,
                   std::size_t max_iterations) {
  const std::size_t k = seed_centroids.size();
  KMeansResult result;
  result.centroids = std::move(seed_centroids);
  result.assignment.assign(values.size(), 0);
  std::vector<double> sums(k);
  std::vector<std::size_t> counts(k);

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    AF_TRACE_SPAN("kmeans.iter");
    bool changed = false;
    // Assign.
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = SquaredDist(values[i], result.centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    // Update.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      sums[c] += values[i];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster on the value farthest from its centroid
        // (centroids before c already hold this iteration's means).
        std::size_t farthest = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < values.size(); ++i) {
          const double d =
              SquaredDist(values[i], result.centroids[result.assignment[i]]);
          if (d > far_d) {
            far_d = d;
            farthest = i;
          }
        }
        result.centroids[c] = values[farthest];
        changed = true;
        continue;
      }
      result.centroids[c] = sums[c] / static_cast<double>(counts[c]);
    }
    result.iterations = iter + 1;
    if (!changed) {
      break;
    }
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    result.inertia +=
        SquaredDist(values[i], result.centroids[result.assignment[i]]);
  }
  return result;
}

}  // namespace

KMeansResult KMeans1D(std::span<const double> values, std::size_t k,
                      std::mt19937_64& rng, const KMeansOptions& options,
                      std::span<const double> warm_start) {
  AF_TRACE_SPAN("kmeans.run");
  AF_CHECK(!values.empty());
  AF_CHECK_GT(k, 0u);
  if (warm_start.size() == k && values.size() >= k) {
    return Lloyd(values, {warm_start.begin(), warm_start.end()},
                 options.max_iterations);
  }

  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    KMeansResult candidate =
        Lloyd(values, SeedCentroids(values, k, rng), options.max_iterations);
    if (candidate.inertia < best.inertia) {
      best = std::move(candidate);
    }
  }
  return best;
}

std::size_t GapStatisticK(std::span<const double> values, std::size_t max_k,
                          std::mt19937_64& rng,
                          std::size_t reference_draws) {
  AF_CHECK(!values.empty());
  AF_CHECK_GE(max_k, 1u);
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  const double lo = *lo_it, hi = *hi_it;
  if (hi - lo <= 1e-12) {
    return 1;  // degenerate: all scores identical
  }

  auto log_inertia = [&](std::span<const double> vals, std::size_t k) {
    KMeansResult r = KMeans1D(vals, k, rng);
    return std::log(std::max(r.inertia, 1e-12));
  };

  std::vector<double> gaps(max_k + 1, 0.0);
  std::vector<double> sks(max_k + 1, 0.0);
  std::uniform_real_distribution<double> uniform(lo, hi);
  for (std::size_t k = 1; k <= max_k; ++k) {
    const double observed = log_inertia(values, k);
    std::vector<double> reference_logs(reference_draws);
    std::vector<double> ref(values.size());
    for (std::size_t b = 0; b < reference_draws; ++b) {
      for (double& v : ref) {
        v = uniform(rng);
      }
      reference_logs[b] = log_inertia(ref, k);
    }
    double ref_mean = 0.0;
    for (double r : reference_logs) {
      ref_mean += r;
    }
    ref_mean /= static_cast<double>(reference_draws);
    double ref_var = 0.0;
    for (double r : reference_logs) {
      ref_var += (r - ref_mean) * (r - ref_mean);
    }
    ref_var /= static_cast<double>(reference_draws);
    gaps[k] = ref_mean - observed;
    sks[k] = std::sqrt(ref_var * (1.0 + 1.0 / static_cast<double>(
                                            reference_draws)));
  }
  // Standard rule: smallest k with gap(k) >= gap(k+1) - s(k+1).
  for (std::size_t k = 1; k < max_k; ++k) {
    if (gaps[k] >= gaps[k + 1] - sks[k + 1]) {
      return k;
    }
  }
  return max_k;
}

}  // namespace cluster
