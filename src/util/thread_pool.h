// Fixed-size thread pool with a ParallelFor helper.
//
// Parallelises independent client local-training jobs inside one simulated
// FL round and the test-set batches of an evaluation; determinism is
// preserved because every client draws from its own pre-derived RNG stream
// and results are collected by index (or, for evaluation, summed as
// integers).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace util {

class ThreadPool {
 public:
  // Creates `num_threads` workers (0 → AvailableCpus()).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // CPUs this process may run on (its affinity mask), at least 1.
  static std::size_t AvailableCpus();

  // Enqueues a task; tasks must not throw (exceptions terminate the pool's
  // worker). Use ParallelFor for checked fan-out.
  void Submit(std::function<void()> task);

  // Runs body(i) for i in [0, count) across the pool and blocks until all
  // iterations complete. Exceptions from body are rethrown (first one wins).
  void ParallelFor(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace util
