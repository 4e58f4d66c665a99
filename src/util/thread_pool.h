// Fixed-size worker pool used to parallelize per-request crypto.
//
// The paper's servers spend almost all CPU time on Curve25519 operations, one
// per request per server (§8.2, "Dominant costs"). A mix server hands each
// round's batch to `ParallelForBlocks`, which is the same batching structure
// the Go prototype gets from goroutines across 36 cores.

#ifndef VUVUZELA_SRC_UTIL_THREAD_POOL_H_
#define VUVUZELA_SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vuvuzela::util {

class ThreadPool {
 public:
  // Creates `num_threads` workers (defaults to hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Runs fn(begin, end) over contiguous blocks of at most `block` indices
  // (0 is treated as 1), work-stealing whole blocks, and blocks until all
  // complete. The calling thread claims blocks too, so nested calls from
  // inside a pool task cannot deadlock. Exceptions from `fn` propagate to
  // the caller (the first one wins); once any block throws, blocks not yet
  // started are cancelled, so a poisoned batch fails fast instead of
  // grinding to the end. A one-worker pool runs every block inline. The mix
  // pass uses blocks so each worker touches a cache-friendly run of onions
  // and can hoist per-block scratch out of the per-onion loop.
  void ParallelForBlocks(size_t n, size_t block,
                         const std::function<void(size_t, size_t)>& fn);

  // Runs fn(i) for i in [0, n): ParallelForBlocks with about four blocks per
  // worker. Same contract, except that after a throw the blocks already
  // running also stop at their next index.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
  };

  void WorkerLoop();
  void Submit(std::function<void()> fn);

  std::vector<std::thread> threads_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

// Process-wide pool sized to hardware concurrency.
ThreadPool& GlobalPool();

}  // namespace vuvuzela::util

#endif  // VUVUZELA_SRC_UTIL_THREAD_POOL_H_
