#include "service/result_cache.h"

#include <utility>

namespace colossal {

ResultCache::ResultCache(const ResultCacheOptions& options)
    : options_(options) {
  MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->GetCounter("colossal_result_cache_hits_total",
                              "Result-cache lookups served from cache");
  misses_ = metrics->GetCounter("colossal_result_cache_misses_total",
                                "Result-cache lookups that missed");
  evictions_ = metrics->GetCounter("colossal_result_cache_evictions_total",
                                   "Results evicted by the cache LRU");
  entries_gauge_ = metrics->GetGauge("colossal_result_cache_entries",
                                     "Results currently cached");
  payload_bytes_gauge_ = metrics->GetGauge(
      "colossal_result_cache_payload_bytes",
      "Rendered payload bytes attached to cached results");
}

std::shared_ptr<const ColossalMiningResult> ResultCache::Get(
    const ResultCacheKey& key, const ColossalMinerOptions& canonical,
    std::shared_ptr<const std::string>* payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || !(it->second.canonical == canonical)) {
    misses_->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  hits_->Increment();
  if (payload != nullptr) *payload = it->second.payload;
  return it->second.result;
}

void ResultCache::Put(const ResultCacheKey& key,
                      const ColossalMinerOptions& canonical,
                      std::shared_ptr<const ColossalMiningResult> result) {
  if (options_.max_entries <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.canonical = canonical;
    it->second.result = std::move(result);
    DropPayload(it->second);
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    return;
  }
  lru_.push_front(key);
  Entry entry;
  entry.canonical = canonical;
  entry.result = std::move(result);
  entry.lru_position = lru_.begin();
  entries_.emplace(key, std::move(entry));
  while (static_cast<int64_t>(entries_.size()) > options_.max_entries) {
    auto evicted = entries_.find(lru_.back());
    DropPayload(evicted->second);
    entries_.erase(evicted);
    lru_.pop_back();
    evictions_->Increment();
  }
  entries_gauge_->Set(static_cast<int64_t>(entries_.size()));
}

void ResultCache::AttachPayload(
    const ResultCacheKey& key,
    const std::shared_ptr<const ColossalMiningResult>& result,
    std::shared_ptr<const std::string> payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.result != result ||
      it->second.payload != nullptr) {
    return;
  }
  payload_bytes_gauge_->Add(static_cast<int64_t>(payload->size()));
  it->second.payload = std::move(payload);
}

void ResultCache::DropPayload(Entry& entry) {
  if (entry.payload == nullptr) return;
  payload_bytes_gauge_->Add(-static_cast<int64_t>(entry.payload->size()));
  entry.payload = nullptr;
}

}  // namespace colossal
