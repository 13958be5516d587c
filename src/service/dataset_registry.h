#ifndef COLOSSAL_SERVICE_DATASET_REGISTRY_H_
#define COLOSSAL_SERVICE_DATASET_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/transaction_database.h"
#include "obs/metrics.h"
#include "shard/shard_manifest.h"

namespace colossal {

// A loaded dataset as handed to requests: the immutable database (shared
// ownership, so eviction never invalidates in-flight mining), its content
// fingerprint, and how this lookup was served.
struct DatasetHandle {
  std::shared_ptr<const TransactionDatabase> db;
  uint64_t fingerprint = 0;
  // True when the registry served the dataset without touching disk.
  bool registry_hit = false;
};

struct DatasetRegistryOptions {
  // Evict least-recently-used datasets once the resident estimate
  // (TransactionDatabase::ApproxMemoryBytes) exceeds this. The most
  // recently used dataset is never evicted, so a single dataset larger
  // than the budget still loads (and simply owns the whole budget).
  int64_t memory_budget_bytes = int64_t{1} << 30;
  // Registry the colossal_dataset_* metrics live in; the dataset
  // registry owns a private one when null.
  MetricsRegistry* metrics = nullptr;
};

// Signature of the on-disk file backing a registry entry, captured just
// before the load. Get re-stats on every hit and reloads when the
// signature moved, so a rewritten dataset is picked up automatically.
struct FileSignature {
  int64_t size = -1;
  int64_t mtime_ns = -1;

  friend bool operator==(const FileSignature& a, const FileSignature& b) {
    return a.size == b.size && a.mtime_ns == b.mtime_ns;
  }
};

// stat(2)s `path`; size/mtime stay -1 when the file is unreachable
// (which never equals a stored signature, forcing the reload path).
FileSignature StatFileSignature(const std::string& path);

// A parsed shard manifest as handed to requests (shard paths resolved
// against the manifest's directory).
struct ShardManifestHandle {
  std::shared_ptr<const ShardManifest> manifest;
  bool registry_hit = false;
};

// A dataset admitted through GetPinned: the handle plus a pin that
// excludes the entry from eviction (and from counting as evictable by
// other admissions) until released. Releasing `pin` — or letting the
// struct go out of scope — unpins; the registry must outlive every pin.
struct PinnedDatasetHandle {
  DatasetHandle handle;
  std::shared_ptr<void> pin;
  // Wall nanos this admission spent blocked waiting for pins and
  // reservations to drain (0 when admitted immediately); what the
  // flight recorder reports as a request's admission_wait_ms.
  int64_t admission_wait_nanos = 0;
};

// Loads each dataset once and shares it immutably across requests — the
// "load once from secondary memory, mine many times" half of the service
// layer. Keyed by (path, format); thread-safe; LRU-evicts by the memory
// budget. A hit re-stats the file's (size, mtime) signature and falls
// back to a reload when it changed, so rewriting a registered file takes
// effect on the next Get.
class DatasetRegistry {
 public:
  explicit DatasetRegistry(const DatasetRegistryOptions& options = {});
  // Drains the eviction reaper (any queued databases are destroyed
  // before the registry's members go away).
  ~DatasetRegistry();

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  // Returns the dataset at `path`, loading it (format as in
  // LoadDatabaseFile: "fimi" | "matrix" | "snapshot" | "auto") on first
  // use. Loads run outside the registry lock; if two threads race on the
  // same new path both read the file and one copy is kept. (Identical
  // *requests* are deduplicated upstream by MiningService.) Get never
  // blocks on admission: if concurrent pins hold bytes its eviction
  // pass cannot claim, the insert may overshoot the budget by at most
  // pinned_bytes until those pins release — the price of keeping the
  // hot unsharded path wait-free.
  StatusOr<DatasetHandle> Get(const std::string& path,
                              const std::string& format = "auto");

  // Concurrent-admission Get for callers that hold several datasets
  // resident at once (the sharded miner's parallel fan-out). The
  // difference from Get is reserve-before-load: `estimated_bytes` is
  // charged against the budget *before* the disk load starts — blocking
  // until outstanding pins + reservations leave room — so N concurrent
  // pinned loads can never drive resident + reserved past the budget.
  // The returned entry is pinned: eviction skips it until the handle's
  // pin is released. A caller whose estimate alone exceeds the budget is
  // admitted once nothing else is pinned or reserved (mirroring Get's
  // single-dataset-owns-the-budget rule), so admission cannot deadlock
  // as long as pins are eventually released.
  StatusOr<PinnedDatasetHandle> GetPinned(const std::string& path,
                                          const std::string& format,
                                          int64_t estimated_bytes);

  // Whether `path` is a shard manifest, with the verdict cached by the
  // file's (size, mtime) signature: a warm call is a single stat(2)
  // instead of an open+read of the magic bytes (counted in
  // sniff_cache_hits_). A rewritten file re-sniffs automatically; a
  // vanished file never matches a stored signature and re-sniffs too.
  // The cache is bounded (paths come from untrusted request lines): a
  // full map resets, and oversized paths are never cached.
  bool SniffIsManifest(const std::string& path);

  // Returns the shard manifest at `path`, parsing it on first use. A
  // manifest is a first-class registry entry — same signature-based
  // staleness as Get — but its shards are *not* loaded here: requests
  // load them individually through Get, which is what lets a dataset
  // whose total size exceeds the memory budget serve within it. Parsed
  // manifests are a few hundred bytes, so they are kept outside the LRU
  // byte accounting.
  StatusOr<ShardManifestHandle> GetManifest(const std::string& path);

 private:
  // RAII release of a GetPinned budget reservation (defined in the
  // .cc); nested so it can reach the accounting fields.
  class ReservationGuard;

  struct Entry {
    std::shared_ptr<const TransactionDatabase> db;
    uint64_t fingerprint = 0;
    int64_t bytes = 0;
    // On-disk signature captured before the load; a hit whose fresh
    // signature differs is stale and reloads.
    FileSignature signature;
    // Position in lru_ (most recent at the front).
    std::list<std::string>::iterator lru_position;
    // Outstanding GetPinned pins; eviction skips pinned entries.
    int pin_count = 0;
    // Distinguishes this entry from a later one under the same key, so
    // a pin outliving a stale-erase + reload never unpins the new
    // entry.
    uint64_t generation = 0;
  };

  struct ManifestEntry {
    std::shared_ptr<const ShardManifest> manifest;
    FileSignature signature;
  };

  struct SniffEntry {
    FileSignature signature;
    bool is_manifest = false;
  };

  // Registers a freshly loaded database under `key`, or adopts the copy
  // another loader registered while ours was reading (caller holds
  // mutex_). Covers eviction-ahead, LRU placement, byte accounting and
  // the peak stat — the one insert path Get and GetPinned share.
  void RegisterLoadedLocked(const std::string& key,
                            std::shared_ptr<const TransactionDatabase> db,
                            uint64_t fingerprint,
                            const FileSignature& signature);

  // Removes `key` if present (caller holds mutex_), dropping its byte
  // accounting (pinned included — in-flight users keep their shared_ptr,
  // and outstanding pins on the erased generation become no-ops).
  void EraseEntryLocked(const std::string& key);

  // Evicts unpinned LRU entries until `incoming_bytes` more — on top of
  // resident and reserved bytes, both accounted internally — would fit
  // the budget (or nothing evictable is left), so a new dataset is
  // admitted into a registry that is already within budget —
  // resident_bytes_ can then only exceed the budget when a single
  // dataset alone does, or when pins + reservations alone hold it
  // (which GetPinned admission prevents). Caller holds mutex_.
  void MakeRoomLocked(int64_t incoming_bytes);

  // Pin bookkeeping. AddPinLocked increments `key`'s pin count (first
  // pin moves the entry's bytes into pinned_bytes_) and returns the
  // releaser handed out via PinnedDatasetHandle::pin; ReleasePin is its
  // (locking) inverse and wakes admission waiters.
  std::shared_ptr<void> AddPinLocked(const std::string& key);
  void ReleasePin(const std::string& key, uint64_t generation);

  // Hands an evicted database to the reaper thread (started lazily on
  // first eviction), so the last-reference destruction runs off the
  // serving path instead of under mutex_. The entry's accounting is the
  // caller's job and stays synchronous — deferred destruction never
  // lets resident_bytes_ disagree with what eviction decided.
  void DeferDestroy(std::shared_ptr<const TransactionDatabase> db);
  void ReapLoop();

  // Updates the peak-resident gauge from resident_bytes_.
  // Reservations are deliberately not counted (see the gauge's doc) —
  // they over-estimate, and their room was already evicted ahead.
  void NotePeakLocked();

  // Mirrors the internal byte accounting (resident/reserved/pinned,
  // entry count) onto the exported gauges; called at every mutation
  // site under mutex_. The int64 fields stay authoritative for the
  // admission arithmetic; the gauges exist for exposition.
  void SyncGaugesLocked();

  const DatasetRegistryOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when options.metrics null
  // The metrics, by the names the constructor registers:
  // colossal_dataset_{loads,hits}_total count disk loads and memory
  // hits, manifests included; colossal_dataset_stale_reloads_total
  // counts hits invalidated by a changed signature.
  Counter* loads_;
  Counter* hits_;
  Counter* evictions_;
  Counter* stale_reloads_;
  // colossal_admission_waits_total: GetPinned admissions that had to
  // wait for pins/reservations to drain before their reservation fit
  // the budget.
  Counter* admission_waits_;
  // colossal_sniff_cache_hits_total: manifest-sniff verdicts served
  // from the signature-keyed cache (a single stat instead of an
  // open+read of the magic bytes).
  Counter* sniff_cache_hits_;
  // colossal_dataset_reaps_total / colossal_dataset_reap_pending:
  // evicted databases destroyed by the background reaper, and how many
  // are queued for it right now (an eviction hands the evicted
  // shared_ptr to a reaper thread, so the destruction — potentially
  // hundreds of MB of frees — never runs on a Get path under the
  // registry mutex; the byte accounting itself stays synchronous).
  Counter* reaps_;
  Gauge* reap_pending_gauge_;
  Gauge* resident_bytes_gauge_;
  // colossal_dataset_peak_resident_bytes: high-water mark of resident
  // bytes. Eviction makes room *before* a new dataset is admitted and
  // GetPinned reserves its estimate *before* it loads (reservations
  // gate admission but are not counted here — they deliberately
  // over-estimate), so while serving a sharded dataset whose total
  // exceeds the budget — even with shards loading concurrently — this
  // never passes the budget. Two bounded exceptions: a single dataset
  // larger than the budget still loads (and owns the whole budget), and
  // a plain Get landing while pins hold bytes it cannot evict may
  // overshoot by at most the pinned bytes — plain Get never blocks, by
  // design (see Get vs. GetPinned).
  Gauge* peak_resident_bytes_gauge_;
  // colossal_dataset_{reserved,pinned}_bytes: bytes reserved by
  // in-flight GetPinned loads (admitted, not yet resident) and
  // currently pinned resident bytes.
  Gauge* reserved_bytes_gauge_;
  Gauge* pinned_bytes_gauge_;
  Gauge* resident_datasets_gauge_;
  std::mutex mutex_;
  // Admission waiters (GetPinned) blocked on pins/reservations draining.
  std::condition_variable admission_cv_;
  std::unordered_map<std::string, Entry> entries_;  // key: path \n format
  std::unordered_map<std::string, ManifestEntry> manifests_;  // key: path
  std::unordered_map<std::string, SniffEntry> sniffs_;        // key: path
  std::list<std::string> lru_;                      // keys, MRU first
  int64_t resident_bytes_ = 0;
  // Bytes reserved by admitted-but-still-loading GetPinned calls.
  int64_t reserved_bytes_ = 0;
  // Bytes of resident entries with pin_count > 0 (subset of
  // resident_bytes_); these cannot be evicted to make room.
  int64_t pinned_bytes_ = 0;
  // FIFO admission tickets for GetPinned reservations (fairness: a
  // large waiter cannot be starved by later small ones).
  uint64_t admission_next_ticket_ = 0;
  uint64_t admission_serving_ticket_ = 0;
  uint64_t next_generation_ = 1;

  // Reaper state, under its own mutex (always acquired after mutex_
  // when both are held, and ReapLoop never takes mutex_).
  std::mutex reap_mutex_;
  std::condition_variable reap_cv_;
  std::vector<std::shared_ptr<const TransactionDatabase>> reap_queue_;
  std::thread reaper_;
  bool reaper_started_ = false;
  bool reap_stop_ = false;
};

}  // namespace colossal

#endif  // COLOSSAL_SERVICE_DATASET_REGISTRY_H_
