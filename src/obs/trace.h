#ifndef COLOSSAL_OBS_TRACE_H_
#define COLOSSAL_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace colossal {

// Per-request tracing: one wall-clock accumulator per dispatch phase,
// answering "where did this request's milliseconds go" from the server
// alone. A RequestTrace lives on the dispatch stack for one request;
// PhaseTimer spans (two steady_clock reads each — always-on cheap) add
// into its per-phase accumulators, and MiningService flushes the
// nonzero phases into the registry's colossal_phase_*_seconds
// histograms when the request completes.
//
// Phases follow the request through the stack. The mining phases are
// timed by the core itself (MineColossal, ShardedMiner::Mine), so a
// library caller passing a RequestTrace gets the server's phase split.
// For sharded requests
// kRegistry accumulates GetPinned/admission time from inside the
// phase-1 loader threads, concurrently with the kPoolMine wall span
// that contains them — phase times are where the work happened, not a
// disjoint partition of the request wall clock (see the trace-phase
// glossary in README.md).
enum class TracePhase {
  kParse = 0,     // request parse + option canonicalization
  kCacheLookup,   // result-cache probe
  kRegistry,      // dataset sniff/load/pin, incl. admission waits
  kPoolMine,      // initial pool mining (sharded: the phase-1 fan-out
                  // and the sorted merge of the shard pools)
  kStitch,        // sharded: re-count of the pairs a shard did not
                  // mine + the global frequency filter
  kFusion,        // core-pattern fusion from the pool
  kSerialize,     // response payload rendering
};

inline constexpr int kNumTracePhases = 7;

inline const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kParse:
      return "parse";
    case TracePhase::kCacheLookup:
      return "cache_lookup";
    case TracePhase::kRegistry:
      return "registry";
    case TracePhase::kPoolMine:
      return "pool_mine";
    case TracePhase::kStitch:
      return "stitch";
    case TracePhase::kFusion:
      return "fusion";
    case TracePhase::kSerialize:
      return "serialize";
  }
  return "unknown";
}

// Accumulators are atomic because kRegistry time is added from the
// sharded miner's concurrent loader threads while the request thread
// owns the rest; relaxed is enough — the flush happens after the
// fan-out joins.
struct RequestTrace {
  std::atomic<int64_t> phase_nanos[kNumTracePhases] = {};

  // Non-phase per-request observables, filled by whichever layer knows
  // them (registry admission, the request and shard arenas, the sharded
  // miner's resolved fan-out, the pool miner) and read back by the
  // flight recorder when the request completes. Atomic for the same
  // reason the phase accumulators are: shard jobs report concurrently.
  std::atomic<int64_t> admission_wait_nanos{0};
  std::atomic<int64_t> arena_peak_bytes{0};
  std::atomic<int32_t> shard_parallelism{0};
  // Search nodes the initial-pool miner expanded (MinerStats), summed
  // over an exact sharded mine's shard jobs. The flight record does not
  // carry it yet.
  std::atomic<int64_t> pool_nodes_expanded{0};

  void AddNanos(TracePhase phase, int64_t nanos) {
    phase_nanos[static_cast<int>(phase)].fetch_add(
        nanos, std::memory_order_relaxed);
  }
  int64_t nanos(TracePhase phase) const {
    return phase_nanos[static_cast<int>(phase)].load(
        std::memory_order_relaxed);
  }
  void AddAdmissionWaitNanos(int64_t nanos) {
    admission_wait_nanos.fetch_add(nanos, std::memory_order_relaxed);
  }
};

// RAII span: starts timing at construction, adds the elapsed nanos to
// the trace's phase at Stop() or destruction (whichever comes first).
// Null-trace tolerant so untraced callers (tests, library users) pay
// nothing and write no conditionals.
class PhaseTimer {
 public:
  PhaseTimer(RequestTrace* trace, TracePhase phase)
      : trace_(trace), phase_(phase) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() { Stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  void Stop() {
    if (trace_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    trace_->AddNanos(
        phase_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - start_)
                    .count());
    trace_ = nullptr;
  }

 private:
  RequestTrace* trace_;
  TracePhase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace colossal

#endif  // COLOSSAL_OBS_TRACE_H_
