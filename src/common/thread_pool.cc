#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/check.h"

namespace colossal {

// Library callers past kMaxThreads clamp rather than crash: std::thread
// throws std::system_error once the OS refuses, and output is identical
// for any thread count, so clamping is always safe.
int ResolveNumThreads(int num_threads) {
  COLOSSAL_CHECK(num_threads >= 0) << "num_threads=" << num_threads;
  if (num_threads >= 1) return std::min(num_threads, kMaxThreads);
  const unsigned detected = std::thread::hardware_concurrency();
  return detected == 0
             ? 1
             : std::min(static_cast<int>(detected), kMaxThreads);
}

ThreadPool::ThreadPool(int num_threads) {
  const int resolved = ResolveNumThreads(num_threads);
  workers_.reserve(static_cast<size_t>(resolved));
  for (int i = 0; i < resolved; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    COLOSSAL_CHECK(!stopping_);
    tasks_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body) {
  if (n <= 0) return;
  if (num_threads() <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared loop state: workers grab indices dynamically (load balancing
  // costs nothing in determinism because results are keyed by index, not
  // by completion order).
  struct LoopState {
    std::atomic<int64_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex done_mutex;
    std::condition_variable done;
    int pending = 0;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<LoopState>();

  const int drivers =
      static_cast<int>(std::min<int64_t>(num_threads(), n));
  state->pending = drivers;

  for (int d = 0; d < drivers; ++d) {
    Submit([state, n, &body] {
      for (;;) {
        if (state->cancelled.load(std::memory_order_relaxed)) break;
        const int64_t i =
            state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->done_mutex);
          if (!state->first_exception) {
            state->first_exception = std::current_exception();
          }
          state->cancelled.store(true, std::memory_order_relaxed);
        }
      }
      {
        std::lock_guard<std::mutex> lock(state->done_mutex);
        --state->pending;
      }
      state->done.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(state->done_mutex);
  state->done.wait(lock, [&state] { return state->pending == 0; });
  if (state->first_exception) std::rethrow_exception(state->first_exception);
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& body) {
  if (pool == nullptr) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->ParallelFor(n, body);
}

}  // namespace colossal
