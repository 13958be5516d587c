#ifndef COLOSSAL_COMMON_THREAD_POOL_H_
#define COLOSSAL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace colossal {

// Parallel-execution subsystem. Everything concurrent in the library —
// fusion's per-seed work (FuseColossalFromPool), Eclat branch
// exploration, the sharded miner's shard fan-out, the TCP server's
// handler pool and batch replay (DispatchBatch) — runs through the
// ThreadPool below. Every mining caller is written so that results are
// bit-identical for any thread count (work is indexed by a
// deterministic slot; per-slot RNG streams are derived from the slot
// index, never from scheduling order). Initial-pool mining (Apriori)
// runs on the calling thread.

// The one ceiling on thread counts: ResolveNumThreads clamps to it, and
// every front end (request lines, colossal_serve's and colossal_cli's
// flags) rejects an explicit count above it, so one hostile or
// fat-fingered request cannot abort the process by exhausting
// thread-spawn resources. Generous versus any real machine.
inline constexpr int kMaxThreads = 512;

// Resolves the user-facing thread-count knob used by every options
// struct: n >= 1 means exactly min(n, kMaxThreads) threads, 0 (the
// default) means hardware_concurrency (at least 1, at most kMaxThreads).
int ResolveNumThreads(int num_threads);

// A fixed-size pool of worker threads consuming a FIFO task queue.
// Construction spawns the workers; destruction stops accepting work,
// drains tasks already queued, and joins. Not reentrant: calling
// ParallelFor from inside a pool task deadlocks.
class ThreadPool {
 public:
  // Spawns ResolveNumThreads(num_threads) workers.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task. Tasks must not throw out of the pool — use
  // ParallelFor for work that can fail.
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [0, n), distributed dynamically across
  // the workers, and blocks until all n calls returned. If any call
  // throws, remaining indices are abandoned and the first captured
  // exception is rethrown on the calling thread. With one worker (or
  // n <= 1) the loop runs inline on the caller.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

// Helper that tolerates a null pool (runs inline): the serial fallback
// every call site uses when threading is disabled or unprofitable.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& body);

// results[i] = fn(i) for i in [0, n), computed in parallel. The output
// order is the index order regardless of scheduling, which is what keeps
// the fusion loop deterministic under any thread count.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, int64_t n, Fn&& fn)
    -> std::vector<decltype(fn(int64_t{0}))> {
  // vector<bool> packs bits, so concurrent writes to adjacent slots
  // would race on shared bytes; return char/int instead.
  static_assert(!std::is_same_v<decltype(fn(int64_t{0})), bool>,
                "ParallelMap cannot return bool (vector<bool> slots are "
                "not independently writable across threads)");
  std::vector<decltype(fn(int64_t{0}))> results(static_cast<size_t>(n));
  ParallelFor(pool, n,
              [&](int64_t i) { results[static_cast<size_t>(i)] = fn(i); });
  return results;
}

}  // namespace colossal

#endif  // COLOSSAL_COMMON_THREAD_POOL_H_
