#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace util {
namespace {

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  // The default is one worker per CPU the process may run on.
  EXPECT_EQ(pool.size(), ThreadPool::AvailableCpus());
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  pool.ParallelFor(visits.size(), [&](std::size_t i) { visits[i]++; });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.ParallelFor(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPoolTest, ParallelForSingleItem) {
  ThreadPool pool(4);
  int value = 0;
  pool.ParallelFor(1, [&](std::size_t) { value = 42; });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, ParallelForAggregatesCorrectly) {
  ThreadPool pool(3);
  std::vector<long> out(1000);
  pool.ParallelFor(out.size(), [&](std::size_t i) {
    out[i] = static_cast<long>(i) * 2;
  });
  long sum = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(sum, 999L * 1000L);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](std::size_t i) {
                                  if (i == 3) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(4, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.ParallelFor(16, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, SequentialParallelForsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int iter = 0; iter < 50; ++iter) {
    pool.ParallelFor(10, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace util
