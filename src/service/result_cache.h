#ifndef COLOSSAL_SERVICE_RESULT_CACHE_H_
#define COLOSSAL_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/colossal_miner.h"
#include "obs/metrics.h"
#include "service/request.h"

namespace colossal {

struct ResultCacheOptions {
  // Maximum cached results; least-recently-used beyond that. 0 disables
  // caching entirely (every Get misses, Put and AttachPayload are
  // no-ops).
  int64_t max_entries = 256;
  // Registry the colossal_result_cache_{hits,misses,evictions}_total
  // counters and the colossal_result_cache_{entries,payload_bytes}
  // gauges live in; the cache owns a private one when null.
  MetricsRegistry* metrics = nullptr;
};

// LRU cache of finished mining results, keyed by (dataset fingerprint,
// canonical options hash). Pattern-Fusion is deterministic given
// (dataset, canonical options), so a hit is byte-identical to a fresh
// run. Entries store the canonical options and verify them on lookup,
// so a 64-bit hash collision degrades to a miss, never a wrong answer.
// Thread-safe; results are shared immutably (shared_ptr), so eviction
// never invalidates a response already handed out.
//
// An entry can also hold its result's rendered FIMI payload, which never
// changes for a given result. The service attaches it on the entry's
// first hit, so later hits serve it without rendering, and a result that
// is never hit keeps no payload. colossal_result_cache_payload_bytes
// reports the payload bytes the cache holds.
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Returns the cached result for (key, canonical options), or null on a
  // miss. A hit refreshes the entry's LRU position and, when `payload`
  // is given, sets it to the entry's attached payload (null until one is
  // attached); a miss leaves `payload` untouched.
  std::shared_ptr<const ColossalMiningResult> Get(
      const ResultCacheKey& key, const ColossalMinerOptions& canonical,
      std::shared_ptr<const std::string>* payload = nullptr);

  // Inserts (or replaces) an entry. `canonical` must be the canonical
  // options the key's options_hash was computed from. A replaced entry
  // drops its payload.
  void Put(const ResultCacheKey& key, const ColossalMinerOptions& canonical,
           std::shared_ptr<const ColossalMiningResult> result);

  // Attaches `payload`, the rendering of `result`, to the entry under
  // `key` — only while that entry still holds `result` itself (an entry
  // evicted and mined again holds another result object) and has no
  // payload yet, so concurrent first hits leave exactly one attached.
  void AttachPayload(const ResultCacheKey& key,
                     const std::shared_ptr<const ColossalMiningResult>& result,
                     std::shared_ptr<const std::string> payload);

 private:
  struct Entry {
    ColossalMinerOptions canonical;
    std::shared_ptr<const ColossalMiningResult> result;
    std::shared_ptr<const std::string> payload;
    std::list<ResultCacheKey>::iterator lru_position;
  };

  // Drops `entry`'s payload and its bytes from the gauge. Caller holds
  // mutex_.
  void DropPayload(Entry& entry);

  const ResultCacheOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when options.metrics null
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Gauge* entries_gauge_;
  Gauge* payload_bytes_gauge_;
  std::mutex mutex_;
  std::unordered_map<ResultCacheKey, Entry, ResultCacheKeyHash> entries_;
  std::list<ResultCacheKey> lru_;  // MRU first
};

}  // namespace colossal

#endif  // COLOSSAL_SERVICE_RESULT_CACHE_H_
