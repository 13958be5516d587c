#ifndef COLOSSAL_COMMON_ARENA_H_
#define COLOSSAL_COMMON_ARENA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace colossal {

// A chunked, 64-byte-aligned bump allocator for mining temporaries.
//
// A mine allocates thousands of short-lived tidsets (candidate support
// sets, level tables, fusion scratch) whose lifetimes all end together
// when the mine finishes. Routing them through an arena replaces that
// allocator churn with pointer bumps, guarantees cache-line/SIMD
// alignment for every Bitvector word buffer, and frees the whole mine
// a chunk at a time — the memory-plan idea from onnxruntime's aligned
// CPUAllocator applied to the paper's tidset algebra. Every mine owns
// a fresh arena (the service's per request, MineColossal's own, one
// per shard job), so each mine's chunks come from malloc and go back
// to it; only the sharded miner's re-count scratch Resets and reuses.
//
// Concurrency: Allocate may be called from any number of threads
// (Eclat's root branches and fusion's seeds run across a pool); the
// fast path is a single atomic fetch_add on the current chunk's offset,
// and only chunk advancement takes a mutex. Reset and destruction must
// not race Allocate — callers reset only between mining phases, after
// the worker pool has joined.
class Arena {
 public:
  // Every returned pointer is aligned to this many bytes (one cache
  // line, and enough for any current SIMD word kernel).
  static constexpr int64_t kAlignment = 64;
  static constexpr int64_t kDefaultChunkBytes = 256 * 1024;

  // `min_chunk_bytes` is the size of the first chunk; later chunks grow
  // geometrically (capped) so large mines stay at a handful of chunks.
  explicit Arena(int64_t min_chunk_bytes = kDefaultChunkBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of uninitialized, 64-byte-aligned storage that
  // stays valid until Reset() or destruction. bytes must be >= 0;
  // requests are rounded up to kAlignment (so bytes == 0 returns a
  // valid, distinct pointer).
  void* Allocate(int64_t bytes);

  // Logically frees everything Allocate has returned, in O(chunks):
  // every chunk is rewound and kept for the allocations that follow.
  // Must not race Allocate.
  void Reset();

  // Bytes handed out since the last Reset (after alignment rounding).
  int64_t allocated_bytes() const {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }

  // High-water mark of allocated_bytes() over the arena's lifetime.
  // Monotone: Reset never lowers it. This is what the service reports
  // as arena_peak_mb.
  int64_t high_water_bytes() const {
    return high_water_bytes_.load(std::memory_order_relaxed);
  }

  // Total bytes reserved in chunks — the arena's own footprint, which
  // only Reset-reuse keeps from growing.
  int64_t chunk_bytes() const {
    return chunk_bytes_.load(std::memory_order_relaxed);
  }

  int64_t num_chunks() const {
    return num_chunks_.load(std::memory_order_relaxed);
  }

 private:
  struct Chunk {
    char* base = nullptr;
    int64_t capacity = 0;
    std::atomic<int64_t> used{0};
  };

  // Slow path: under the mutex, advance to (or allocate) a chunk with
  // room for `rounded` bytes and return the allocation from it.
  void* AllocateSlow(int64_t rounded);

  // Bumps the allocation counters after a successful carve.
  void Account(int64_t rounded);

  const int64_t min_chunk_bytes_;

  // Guards chunks_ growth and current-chunk advancement. The fast path
  // never takes it.
  std::mutex mutex_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // stable Chunk addresses
  size_t current_index_ = 0;                    // guarded by mutex_
  std::atomic<Chunk*> current_{nullptr};

  std::atomic<int64_t> allocated_bytes_{0};
  std::atomic<int64_t> high_water_bytes_{0};
  std::atomic<int64_t> chunk_bytes_{0};
  std::atomic<int64_t> num_chunks_{0};
};

// Raises `peak` to at least `value` (atomic CAS-max). For the stat
// sinks that aggregate arena high-water marks across requests and
// shard jobs (the service's arena_peak_mb).
void RaiseArenaPeak(std::atomic<int64_t>& peak, int64_t value);

}  // namespace colossal

#endif  // COLOSSAL_COMMON_ARENA_H_
