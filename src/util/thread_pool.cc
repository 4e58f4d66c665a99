#include "src/util/thread_pool.h"

#include <atomic>
#include <exception>

namespace vuvuzela::util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown and drained
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task.fn();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(Task{std::move(fn)});
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  // About four blocks per worker balances uneven iterations. The flag stops
  // the other in-flight blocks at their next index once one iteration
  // throws, not just at their next block.
  size_t per_block = (n + 4 * threads_.size() - 1) / (4 * threads_.size());
  std::atomic<bool> failed{false};
  ParallelForBlocks(n, per_block, [&](size_t begin, size_t end) {
    try {
      for (size_t i = begin; i < end && !failed.load(); ++i) {
        fn(i);
      }
    } catch (...) {
      failed.store(true);
      throw;
    }
  });
}

void ThreadPool::ParallelForBlocks(size_t n, size_t block,
                                   const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (block == 0) {
    block = 1;
  }
  size_t blocks = (n + block - 1) / block;
  if (blocks <= 1 || threads_.size() <= 1) {
    for (size_t begin = 0; begin < n; begin += block) {
      fn(begin, std::min(n, begin + block));
    }
    return;
  }

  struct Shared {
    std::atomic<size_t> next_block{0};
    std::atomic<size_t> done{0};
    std::atomic<bool> cancelled{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto shared = std::make_shared<Shared>();

  // Completion is counted per *block*, and the calling thread participates
  // and claims blocks until the supply runs dry — so the wait below finishes
  // even if every queued helper is scheduled late (or never), which is also
  // what makes a call from inside a pool task safe. After a block throws,
  // remaining blocks are claimed but skipped so the count still converges.
  auto worker = [shared, block, blocks, n, &fn]() {
    for (;;) {
      size_t b = shared->next_block.fetch_add(1);
      if (b >= blocks) {
        break;
      }
      if (!shared->cancelled.load(std::memory_order_relaxed)) {
        try {
          size_t begin = b * block;
          fn(begin, std::min(n, begin + block));
        } catch (...) {
          shared->cancelled.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(shared->error_mutex);
          if (!shared->error) {
            shared->error = std::current_exception();
          }
        }
      }
      size_t done = shared->done.fetch_add(1) + 1;
      if (done == blocks) {
        std::lock_guard<std::mutex> lock(shared->done_mutex);
        shared->done_cv.notify_all();
      }
    }
  };

  size_t helpers = std::min(blocks - 1, threads_.size());
  for (size_t i = 0; i < helpers; ++i) {
    Submit(worker);
  }
  worker();

  std::unique_lock<std::mutex> lock(shared->done_mutex);
  shared->done_cv.wait(lock, [&] { return shared->done.load() == blocks; });
  if (shared->error) {
    std::rethrow_exception(shared->error);
  }
}

ThreadPool& GlobalPool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace vuvuzela::util
