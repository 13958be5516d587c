#ifndef COLOSSAL_OBS_FLIGHT_RECORDER_H_
#define COLOSSAL_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace colossal {

// Per-request flight recording: the last N completed requests, each with
// the identity and cost breakdown the aggregate metrics layer throws
// away. Where obs/metrics.h answers "where do requests in general spend
// time", the recorder answers "what did request 4711 do" — the `trace
// <id>` control word, the /debug/requests endpoints, and the
// slow-request log all read from here.

// One completed (or failed) request. Plain trivially-copyable data with
// fixed-size strings, so a record is a flat block of bytes a seqlock
// slot can publish without allocation; oversized dataset paths truncate.
struct FlightRecord {
  uint64_t id = 0;  // 0 = empty slot; minted ids start at 1
  // Wall-clock start of the request (UNIX epoch nanoseconds).
  int64_t start_unix_nanos = 0;
  // Content fingerprint of the dataset and the canonical-options hash —
  // together the result-cache identity of the request.
  uint64_t dataset_fingerprint = 0;
  uint64_t options_hash = 0;
  // Bytes of the response payload (FIMI patterns, or the error message).
  int64_t response_bytes = 0;
  // End-to-end wall nanos, dispatch entry to rendered payload.
  int64_t total_nanos = 0;
  int64_t phase_nanos[kNumTracePhases] = {};
  // Registry admission time (GetPinned reservations waiting for room).
  int64_t admission_wait_nanos = 0;
  // High-water mark over this request's own mining arenas.
  int64_t arena_peak_bytes = 0;
  int32_t shards = 0;             // 0 = unsharded
  // Fan-out the sharded miner used; 0 = unsharded.
  int32_t shard_parallelism = 0;
  char transport[8] = {};         // "tcp" | "http" | "stdin" | "batch" ...
  char source[12] = {};           // mined | cache | coalesced | failed
  char status[20] = {};           // StatusCodeName, "OK" on success
  char dataset[136] = {};         // request path, NUL-terminated, truncated
};

// Fixed-capacity lock-light ring of FlightRecords. Writers claim slots
// with one fetch_add on the ring cursor and publish through a per-slot
// seqlock version (odd = write in progress); readers copy a slot's
// words and retry/skip when the version moved underneath them, so a
// torn record can never be returned. The slot payload itself is stored
// as relaxed atomic words — Record() is one fetch_add, one CAS, ~40
// relaxed stores and one release store, the same always-on budget class
// as Histogram::Record. Two writers can collide on a slot only when one
// lags a full ring of requests behind the other; the late writer drops
// its record (counted) instead of corrupting the protocol.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  // Capacity is rounded up to a power of two (minimum 2).
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Process-monotonic request id, starting at 1; never reused.
  uint64_t MintId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Publishes one record into the ring (record.id should be minted).
  void Record(const FlightRecord& record);

  // The most recent records, newest first, at most max_n. Slots being
  // rewritten concurrently are skipped, never returned torn.
  std::vector<FlightRecord> Recent(size_t max_n) const;

  // Finds the record with `id` if it is still in the ring.
  bool Find(uint64_t id, FlightRecord* out) const;

  int64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  // Records dropped to a same-slot writer collision (a writer a full
  // ring behind); 0 in any sane serving regime.
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kRecordWords =
      (sizeof(FlightRecord) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  struct Slot {
    // Even = stable (0 = never written), odd = write in progress.
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> words[kRecordWords] = {};
  };

  // Copies the slot's record into *out; false if empty or torn.
  bool ReadSlot(const Slot& slot, FlightRecord* out) const;

  size_t capacity_;  // power of two
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> cursor_{0};
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> dropped_{0};
};

// Renders one record as a single-line JSON object (no trailing
// newline): the shape served by /debug/requests, the `recent`/`trace`
// control words, and the slow-request log.
void AppendFlightRecordJson(const FlightRecord& record, std::string* out);
std::string FlightRecordJson(const FlightRecord& record);

// Copies `text` into a FlightRecord fixed-size char field, truncating
// and always NUL-terminating.
template <size_t N>
void SetFlightField(char (&field)[N], std::string_view text) {
  const size_t n = text.size() < N - 1 ? text.size() : N - 1;
  for (size_t i = 0; i < n; ++i) field[i] = text[i];
  field[n] = '\0';
}

}  // namespace colossal

#endif  // COLOSSAL_OBS_FLIGHT_RECORDER_H_
