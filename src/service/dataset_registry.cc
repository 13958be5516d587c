#include "service/dataset_registry.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/snapshot_io.h"

namespace colossal {

namespace {

std::string EntryKey(const std::string& path, const std::string& format) {
  // '\n' cannot appear in either component, so the key is unambiguous.
  return path + "\n" + format;
}

// Bounds on the sniff-verdict cache. Unlike entries_ (budget-evicted)
// and manifests_ (cached only after a successful parse of a real file),
// sniffs_ caches a verdict for *any* request path — which a hostile
// client stream of distinct --in strings could otherwise grow without
// bound. Oversized paths are not cached at all, and a full map is
// simply cleared: verdicts are one stat + open to re-derive.
constexpr size_t kMaxSniffPathBytes = 4096;
constexpr size_t kMaxSniffEntries = 4096;

}  // namespace

// Releases a GetPinned budget reservation on every exit path —
// including an exception thrown out of the load (bad_alloc on a large
// shard, say) — so a failed load can never leave phantom reserved bytes
// behind to starve future admissions forever. The normal paths release
// under their own lock (TakeLocked) to convert the reservation into the
// entry's actual accounting atomically.
class DatasetRegistry::ReservationGuard {
 public:
  ReservationGuard(DatasetRegistry* registry, int64_t bytes)
      : registry_(registry), bytes_(bytes) {}
  ~ReservationGuard() {
    if (registry_ == nullptr) return;
    std::lock_guard<std::mutex> lock(registry_->mutex_);
    registry_->reserved_bytes_ -= bytes_;
    registry_->SyncGaugesLocked();
    registry_->admission_cv_.notify_all();
  }

  ReservationGuard(const ReservationGuard&) = delete;
  ReservationGuard& operator=(const ReservationGuard&) = delete;

  // Disarms the guard and returns the reserved bytes for the caller to
  // release itself (caller holds the registry mutex).
  int64_t TakeLocked() {
    registry_ = nullptr;
    return bytes_;
  }

 private:
  DatasetRegistry* registry_;
  const int64_t bytes_;
};

FileSignature StatFileSignature(const std::string& path) {
  FileSignature signature;
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) return signature;
  signature.size = static_cast<int64_t>(info.st_size);
  signature.mtime_ns = static_cast<int64_t>(info.st_mtim.tv_sec) *
                           int64_t{1000000000} +
                       static_cast<int64_t>(info.st_mtim.tv_nsec);
  return signature;
}

DatasetRegistry::DatasetRegistry(const DatasetRegistryOptions& options)
    : options_(options) {
  MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  loads_ = metrics->GetCounter("colossal_dataset_loads_total",
                               "Datasets (incl. manifests) loaded from disk");
  hits_ = metrics->GetCounter("colossal_dataset_hits_total",
                              "Dataset lookups served from memory");
  evictions_ = metrics->GetCounter("colossal_dataset_evictions_total",
                                   "Datasets evicted by the registry LRU");
  stale_reloads_ =
      metrics->GetCounter("colossal_dataset_stale_reloads_total",
                          "Hits invalidated by a changed file signature");
  admission_waits_ =
      metrics->GetCounter("colossal_admission_waits_total",
                          "GetPinned admissions that waited for room");
  sniff_cache_hits_ =
      metrics->GetCounter("colossal_sniff_cache_hits_total",
                          "Manifest-sniff verdicts served from cache");
  reaps_ = metrics->GetCounter(
      "colossal_dataset_reaps_total",
      "Evicted datasets destroyed by the background reaper");
  reap_pending_gauge_ =
      metrics->GetGauge("colossal_dataset_reap_pending",
                        "Evicted datasets queued for background destruction");
  resident_bytes_gauge_ = metrics->GetGauge(
      "colossal_dataset_resident_bytes", "Bytes of datasets held resident");
  peak_resident_bytes_gauge_ =
      metrics->GetGauge("colossal_dataset_peak_resident_bytes",
                        "High-water mark of resident dataset bytes");
  reserved_bytes_gauge_ =
      metrics->GetGauge("colossal_dataset_reserved_bytes",
                        "Bytes reserved by in-flight pinned loads");
  pinned_bytes_gauge_ =
      metrics->GetGauge("colossal_dataset_pinned_bytes",
                        "Resident bytes held unevictable by pins");
  resident_datasets_gauge_ = metrics->GetGauge(
      "colossal_dataset_resident_datasets", "Datasets currently resident");
}

DatasetRegistry::~DatasetRegistry() {
  {
    std::lock_guard<std::mutex> lock(reap_mutex_);
    reap_stop_ = true;
  }
  reap_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
}

void DatasetRegistry::DeferDestroy(
    std::shared_ptr<const TransactionDatabase> db) {
  if (db == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(reap_mutex_);
    if (!reaper_started_) {
      reaper_started_ = true;
      reaper_ = std::thread(&DatasetRegistry::ReapLoop, this);
    }
    reap_queue_.push_back(std::move(db));
    reap_pending_gauge_->Set(static_cast<int64_t>(reap_queue_.size()));
  }
  reap_cv_.notify_one();
}

void DatasetRegistry::ReapLoop() {
  std::unique_lock<std::mutex> lock(reap_mutex_);
  while (true) {
    reap_cv_.wait(lock, [&] { return reap_stop_ || !reap_queue_.empty(); });
    if (reap_queue_.empty()) return;  // only possible when stopping
    std::vector<std::shared_ptr<const TransactionDatabase>> batch;
    batch.swap(reap_queue_);
    reap_pending_gauge_->Set(0);
    lock.unlock();
    const int64_t reaped = static_cast<int64_t>(batch.size());
    // The point of the thread: if these were the last references, the
    // frees land here, not under the registry mutex on a Get path. (A
    // mine still holding the dataset keeps it alive past this drop —
    // eviction never invalidates in-flight work.)
    batch.clear();
    reaps_->Increment(reaped);
    lock.lock();
  }
}

StatusOr<DatasetHandle> DatasetRegistry::Get(const std::string& path,
                                             const std::string& format) {
  const std::string key = EntryKey(path, format);
  // Captured before the read, so a writer racing with the load is caught
  // as stale on the next Get rather than pinned forever.
  const FileSignature signature = StatFileSignature(path);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.signature == signature) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_position);
        hits_->Increment();
        DatasetHandle handle;
        handle.db = it->second.db;
        handle.fingerprint = it->second.fingerprint;
        handle.registry_hit = true;
        return handle;
      }
      // The file changed (or vanished) under the entry: drop it and fall
      // through to a fresh load. In-flight users keep their shared_ptr.
      stale_reloads_->Increment();
      EraseEntryLocked(key);
    }
  }

  // Load outside the lock so other paths stay servable. If two threads
  // race on the same new path both load; the second insert is dropped in
  // favour of the first (identical content either way).
  StatusOr<TransactionDatabase> loaded = LoadDatabaseFile(path, format);
  if (!loaded.ok()) return loaded.status();
  auto db = std::make_shared<const TransactionDatabase>(*std::move(loaded));
  const uint64_t fingerprint = FingerprintDatabase(*db);

  std::lock_guard<std::mutex> lock(mutex_);
  RegisterLoadedLocked(key, std::move(db), fingerprint, signature);
  DatasetHandle handle;
  handle.db = entries_.at(key).db;
  handle.fingerprint = entries_.at(key).fingerprint;
  handle.registry_hit = false;
  return handle;
}

StatusOr<PinnedDatasetHandle> DatasetRegistry::GetPinned(
    const std::string& path, const std::string& format,
    int64_t estimated_bytes) {
  // Estimates derive from request-supplied manifests, so a bad one is
  // clamped, never CHECKed: a hostile input must fail (or load under a
  // clamped reservation), not abort the server. The upper clamp is the
  // budget itself — reserving more buys nothing (the solo-admission
  // rule owns the whole budget anyway) and keeps reserved_bytes_ sums
  // overflow-free.
  if (estimated_bytes < 0) estimated_bytes = 0;
  if (options_.memory_budget_bytes > 0 &&
      estimated_bytes > options_.memory_budget_bytes) {
    estimated_bytes = options_.memory_budget_bytes;
  }
  const std::string key = EntryKey(path, format);
  const FileSignature signature = StatFileSignature(path);
  int64_t admission_wait_nanos = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.signature == signature) {
        // Already resident: pinning adds no bytes, so no admission
        // wait — the entry's bytes merely move into the pinned set.
        lru_.splice(lru_.begin(), lru_, it->second.lru_position);
        hits_->Increment();
        PinnedDatasetHandle pinned;
        pinned.handle.db = it->second.db;
        pinned.handle.fingerprint = it->second.fingerprint;
        pinned.handle.registry_hit = true;
        pinned.pin = AddPinLocked(key);
        return pinned;
      }
      stale_reloads_->Increment();
      EraseEntryLocked(key);
    }
    // Reserve-before-load: wait until the estimate fits alongside what
    // cannot be evicted (pinned entries + other reservations), then
    // charge it, so N concurrent pinned loads can never drive
    // resident + reserved past the budget. Admission is FIFO by ticket:
    // a large reservation cannot be starved by a stream of small ones
    // that happen to keep fitting — each waiter is admitted in arrival
    // order, and the head of the line with nothing else pinned or
    // reserved is always admitted (the pinned mirror of Get's
    // single-dataset-owns-the-budget rule), which is what makes
    // admission deadlock-free: pin holders never need admission to
    // finish, so the head's turn always comes.
    const uint64_t ticket = admission_next_ticket_++;
    auto admissible = [this, estimated_bytes, ticket] {
      if (ticket != admission_serving_ticket_) return false;
      const __int128 unevictable =
          static_cast<__int128>(reserved_bytes_) + pinned_bytes_;
      if (unevictable == 0) return true;
      return unevictable + estimated_bytes <=
             static_cast<__int128>(options_.memory_budget_bytes);
    };
    if (!admissible()) {
      admission_waits_->Increment();
      const auto wait_start = std::chrono::steady_clock::now();
      admission_cv_.wait(lock, admissible);
      admission_wait_nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count();
    }
    reserved_bytes_ += estimated_bytes;
    SyncGaugesLocked();
    ++admission_serving_ticket_;
    admission_cv_.notify_all();  // next ticket holder re-evaluates
    // Evict unpinned entries now so the in-flight load already has its
    // room while it reads from disk — the resident high-water mark then
    // cannot pass the budget when the loaded bytes land.
    MakeRoomLocked(0);
  }
  ReservationGuard reservation(this, estimated_bytes);

  StatusOr<TransactionDatabase> loaded = LoadDatabaseFile(path, format);
  if (!loaded.ok()) return loaded.status();  // guard releases
  auto db = std::make_shared<const TransactionDatabase>(*std::move(loaded));
  const uint64_t fingerprint = FingerprintDatabase(*db);

  std::lock_guard<std::mutex> lock(mutex_);
  // The reservation converts into the entry's actual byte accounting
  // (or vanishes, on a lost race against another loader of `key`).
  reserved_bytes_ -= reservation.TakeLocked();
  SyncGaugesLocked();
  RegisterLoadedLocked(key, std::move(db), fingerprint, signature);
  PinnedDatasetHandle pinned;
  pinned.handle.db = entries_.at(key).db;
  pinned.handle.fingerprint = entries_.at(key).fingerprint;
  pinned.handle.registry_hit = false;
  pinned.admission_wait_nanos = admission_wait_nanos;
  pinned.pin = AddPinLocked(key);
  admission_cv_.notify_all();
  return pinned;
}

bool DatasetRegistry::SniffIsManifest(const std::string& path) {
  const FileSignature signature = StatFileSignature(path);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sniffs_.find(path);
    if (it != sniffs_.end() && it->second.signature == signature) {
      sniff_cache_hits_->Increment();
      return it->second.is_manifest;
    }
  }
  // Cold (or stale) path: one open+read of the magic bytes, outside the
  // lock.
  const bool is_manifest = IsShardManifestFile(path);
  if (path.size() > kMaxSniffPathBytes) return is_manifest;
  std::lock_guard<std::mutex> lock(mutex_);
  if (sniffs_.size() >= kMaxSniffEntries &&
      sniffs_.find(path) == sniffs_.end()) {
    sniffs_.clear();
  }
  sniffs_[path] = SniffEntry{signature, is_manifest};
  return is_manifest;
}

StatusOr<ShardManifestHandle> DatasetRegistry::GetManifest(
    const std::string& path) {
  const FileSignature signature = StatFileSignature(path);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = manifests_.find(path);
    if (it != manifests_.end()) {
      if (it->second.signature == signature) {
        hits_->Increment();
        ShardManifestHandle handle;
        handle.manifest = it->second.manifest;
        handle.registry_hit = true;
        return handle;
      }
      stale_reloads_->Increment();
      manifests_.erase(it);
    }
  }

  StatusOr<ShardManifest> loaded = ReadShardManifestFile(path);
  if (!loaded.ok()) return loaded.status();
  auto manifest = std::make_shared<const ShardManifest>(*std::move(loaded));

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = manifests_.find(path);
  if (it == manifests_.end()) {
    loads_->Increment();
    manifests_.emplace(path, ManifestEntry{manifest, signature});
  } else {
    // Lost a race; serve the registered copy.
    hits_->Increment();
    manifest = it->second.manifest;
  }
  ShardManifestHandle handle;
  handle.manifest = std::move(manifest);
  handle.registry_hit = false;
  return handle;
}

void DatasetRegistry::RegisterLoadedLocked(
    const std::string& key, std::shared_ptr<const TransactionDatabase> db,
    uint64_t fingerprint, const FileSignature& signature) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Lost the race; serve the copy another loader registered.
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    hits_->Increment();
    return;
  }
  loads_->Increment();
  Entry entry;
  entry.db = std::move(db);
  entry.fingerprint = fingerprint;
  entry.bytes = entry.db->ApproxMemoryBytes();
  entry.signature = signature;
  entry.generation = next_generation_++;
  // Room for this entry *and* every outstanding pinned-load reservation
  // (accounted inside MakeRoomLocked), so the resident + reserved
  // high-water mark stays within the budget.
  MakeRoomLocked(entry.bytes);
  lru_.push_front(key);
  entry.lru_position = lru_.begin();
  resident_bytes_ += entry.bytes;
  entries_.emplace(key, std::move(entry));
  NotePeakLocked();
  SyncGaugesLocked();
}

void DatasetRegistry::EraseEntryLocked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  resident_bytes_ -= it->second.bytes;
  if (it->second.pin_count > 0) {
    // Erasing a pinned entry (a stale reload) drops its byte accounting
    // with it; the outstanding pins carry the erased generation and
    // release as no-ops.
    pinned_bytes_ -= it->second.bytes;
    admission_cv_.notify_all();
  }
  lru_.erase(it->second.lru_position);
  DeferDestroy(std::move(it->second.db));
  entries_.erase(it);
  SyncGaugesLocked();
}

void DatasetRegistry::MakeRoomLocked(int64_t incoming_bytes) {
  if (lru_.empty()) return;
  // Oldest-first over the unpinned entries; pinned ones are skipped (a
  // pin is a promise the dataset stays resident until released). The
  // target is resident + reserved + incoming <= budget — outstanding
  // reservations always keep their room — compared in 128 bits so
  // saturated hostile estimates cannot wrap the arithmetic.
  auto pos = std::prev(lru_.end());
  while (static_cast<__int128>(resident_bytes_) + reserved_bytes_ +
             incoming_bytes >
         static_cast<__int128>(options_.memory_budget_bytes)) {
    const bool at_front = pos == lru_.begin();
    auto it = entries_.find(*pos);
    if (it->second.pin_count > 0) {
      if (at_front) return;
      --pos;
      continue;
    }
    resident_bytes_ -= it->second.bytes;
    DeferDestroy(std::move(it->second.db));
    entries_.erase(it);
    evictions_->Increment();
    SyncGaugesLocked();
    const auto victim = pos;
    if (!at_front) --pos;
    lru_.erase(victim);
    if (at_front) return;
  }
}

std::shared_ptr<void> DatasetRegistry::AddPinLocked(const std::string& key) {
  Entry& entry = entries_.at(key);
  if (entry.pin_count++ == 0) {
    pinned_bytes_ += entry.bytes;
    SyncGaugesLocked();
  }
  const uint64_t generation = entry.generation;
  DatasetRegistry* self = this;
  return std::shared_ptr<void>(new int(0),
                               [self, key, generation](void* token) {
                                 delete static_cast<int*>(token);
                                 self->ReleasePin(key, generation);
                               });
}

void DatasetRegistry::ReleasePin(const std::string& key,
                                 uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.generation != generation) return;
  Entry& entry = it->second;
  COLOSSAL_CHECK(entry.pin_count > 0) << "unbalanced unpin for " << key;
  if (--entry.pin_count == 0) {
    pinned_bytes_ -= entry.bytes;
    SyncGaugesLocked();
    admission_cv_.notify_all();
  }
}

void DatasetRegistry::NotePeakLocked() {
  peak_resident_bytes_gauge_->RaiseTo(resident_bytes_);
}

void DatasetRegistry::SyncGaugesLocked() {
  resident_bytes_gauge_->Set(resident_bytes_);
  reserved_bytes_gauge_->Set(reserved_bytes_);
  pinned_bytes_gauge_->Set(pinned_bytes_);
  resident_datasets_gauge_->Set(static_cast<int64_t>(entries_.size()));
}

}  // namespace colossal
