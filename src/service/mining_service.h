#ifndef COLOSSAL_SERVICE_MINING_SERVICE_H_
#define COLOSSAL_SERVICE_MINING_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/dataset_registry.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "shard/sharded_miner.h"

namespace colossal {

struct MiningServiceOptions {
  // Default intra-request mining threads when a request leaves
  // options.num_threads at 0. The service default is 1 so that
  // throughput comes from request-level parallelism (the front end's
  // batch or handler pool) instead of oversubscribing every job; a
  // request can set its own --threads. Output is identical either way.
  int mining_threads = 1;

  // Admission control over actual mines (cache hits and coalesced
  // joiners bypass the gate). 0 = unlimited. Over-limit requests fail
  // RESOURCE_EXHAUSTED — 429 + Retry-After on the HTTP front end —
  // instead of queueing; see service/admission.h for the exact
  // semantics (the bytes bound is strict).
  int max_inflight_mines = 0;
  int64_t max_inflight_mine_bytes = 0;

  // Slow-request log threshold in milliseconds: a completed request
  // whose end-to-end wall time reaches the threshold is written as one
  // JSON line (the full flight record). < 0 disables the log; 0 logs
  // every request (what the CI smoke uses to force a sample).
  int64_t slow_request_ms = -1;
  // Where slow-request lines go; empty = stderr.
  std::string slow_log_path;

  // Ring size of the per-request flight recorder (rounded up to a
  // power of two).
  size_t flight_recorder_capacity = FlightRecorder::kDefaultCapacity;

  DatasetRegistryOptions registry;
  ResultCacheOptions cache;

  // Registry every component's metrics land in. The service owns a
  // private one when null, and threads it into the dataset registry and
  // result cache (unless those sub-options name their own), so one
  // RenderText covers the whole serving stack.
  MetricsRegistry* metrics = nullptr;
};

// How a response was produced, for logging/stats.
enum class ResponseSource {
  kMined,      // ran Pattern-Fusion
  kCache,      // served from the result cache
  kCoalesced,  // waited on an identical in-flight request
  kFailed,
};

const char* ResponseSourceName(ResponseSource source);

struct MiningResponse {
  // Per-request status: a batch never aborts because one line failed.
  Status status;
  // The (shared, immutable) mining result; null when !status.ok().
  std::shared_ptr<const ColossalMiningResult> result;
  // The result's FIMI payload, exactly RenderPatternsPayload's bytes; set
  // whenever status.ok(). A mine renders it once and shares it with its
  // coalesced waiters; a cache hit takes it from the cache entry, where
  // the entry's first hit rendered and attached it.
  std::shared_ptr<const std::string> payload;

  ResponseSource source = ResponseSource::kFailed;
  // True when the dataset came from the registry without a disk load.
  bool dataset_registry_hit = false;
  uint64_t dataset_fingerprint = 0;
  uint64_t options_hash = 0;
  // Shard count the request was mined over (0 = unsharded dataset).
  int shards = 0;
  // Wall-clock for this request inside Mine: registry, cache, mining and
  // the payload render when this request rendered it.
  double seconds = 0.0;
};

// The FIMI-format pattern payload of a response's result ("" when the
// result is null), rendered afresh: what MiningResponse::payload holds
// for a successful response, what batch mode's --out-dir writes for the
// request, and what the CI net-smoke job compares a wire replay against.
std::string RenderPatternsPayload(const MiningResponse& response);

// The mining front door: resolves datasets through a DatasetRegistry,
// collapses equivalent requests onto one ResultCache entry, deduplicates
// identical in-flight requests (the second caller waits for the first
// instead of mining twice). Concurrency comes from the callers: every
// front end (service/dispatch.h) runs requests on its own threads.
//
// Sharded datasets are first-class: a request whose dataset is a shard
// manifest (sniffed, or --format manifest) routes through ShardedMiner,
// with shards loaded individually through the registry so a dataset
// larger than the memory budget still serves within it. Exact sharded
// results are byte-identical to unsharded ones and share their cache
// entries (the manifest carries the parent's content fingerprint);
// approximate fusion results are cached under a distinct key.
//
// Observability: the service (and the registry/cache/server around it)
// report into one MetricsRegistry — counters per response source, an
// end-to-end latency histogram, and one histogram per trace phase
// (obs/trace.h), fed by the RequestTrace a caller passes to Mine (or a
// service-local one when it passes null). Tracing is always on and adds
// only steady_clock reads; mining output is byte-identical with or
// without a trace attached.
//
// Thread-safe; Mine may be called concurrently from any thread.
class MiningService {
 public:
  explicit MiningService(const MiningServiceOptions& options = {});
  ~MiningService();

  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  // Serves one request synchronously, payload included. The traced
  // overload accumulates per-phase wall time into `trace` as well as
  // into the service's phase histograms (the dispatch path passes its
  // own trace, so the grammar parse it timed lands on the same request).
  // The serialize phase is recorded only by a request that rendered: a
  // mine, or a cached result's first hit.
  MiningResponse Mine(const MineRequest& request);
  MiningResponse Mine(const MineRequest& request, RequestTrace* trace);

  // The registry all serving metrics live in (the service's own plus
  // the dataset registry's and result cache's, unless their sub-options
  // pointed elsewhere): what the `metrics` control word renders, and
  // where callers read any counter by its exposition name.
  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }

  // The text exposition with point-in-time metrics (uptime) refreshed;
  // what the `metrics` control word and GET /metrics actually serve.
  std::string RenderMetrics();

  // Per-request flight recorder: the dispatch layer mints request ids
  // from it and lands one FlightRecord per completed request.
  FlightRecorder& flight_recorder() { return recorder_; }
  const FlightRecorder& flight_recorder() const { return recorder_; }

  // Publishes one finished request into the flight recorder and, when
  // its total time reaches options.slow_request_ms, into the
  // slow-request log (token-bucket rate-limited) and the
  // colossal_slow_requests_total counter.
  void RecordFlight(const FlightRecord& record);

  // Counts a request line that failed to parse — parse failures never
  // reach Mine, so the dispatch layer reports them here to keep
  // colossal_requests_total covering every line received.
  void NoteParseFailure();

  // Adds one sample to a phase histogram directly; used by the dispatch
  // layer for the parse phase of a line that never reached Mine.
  void RecordPhaseNanos(TracePhase phase, int64_t nanos);

 private:
  // One in-flight mining job; identical concurrent requests wait on it.
  // `canonical` (immutable after insertion) is verified by joiners so a
  // 64-bit key collision mines independently instead of returning the
  // wrong result — the same guarantee ResultCache gives.
  struct Inflight {
    ColossalMinerOptions canonical;
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    Status status;
    std::shared_ptr<const ColossalMiningResult> result;
    std::shared_ptr<const std::string> payload;
  };

  // A request resolved to its cache identity but not yet mined: the
  // dataset (or manifest) it holds until the mine, the canonical
  // options, and the cache key.
  struct Prepared {
    Status status;  // dataset resolution / canonicalization failure
    bool sharded = false;
    ShardMergeMode shard_mode = ShardMergeMode::kExact;
    std::shared_ptr<const ShardManifest> manifest;  // sharded only
    DatasetHandle handle;                           // unsharded only
    bool registry_hit = false;
    uint64_t fingerprint = 0;
    // Estimated dataset bytes this mine touches (the whole database,
    // or the summed per-shard residency estimates), charged against
    // the admission gate's bytes bound while the mine runs. Computed
    // in Prepare, where the dataset identity is already resolved.
    int64_t admission_bytes = 0;
    CanonicalRequest canonical;
    ResultCacheKey key;
  };

  // Resolves the request's dataset through the registry (manifests
  // included) and canonicalizes its options into the cache key.
  Prepared Prepare(const MineRequest& request, RequestTrace* trace);

  // Serves a prepared request: result cache, in-flight dedup, then the
  // actual mine (sharded or not). Sets everything but leaves
  // response.seconds covering only this call.
  MiningResponse Execute(const MineRequest& request, const Prepared& prep,
                         RequestTrace* trace);

  // The mine itself: one MineColossal or ShardedMiner::Mine call with
  // the canonical options and the request's execution knobs. The core
  // times its own phases into `trace` (never null here); the request
  // arena and the core's shard arenas raise trace->arena_peak_bytes.
  StatusOr<ColossalMiningResult> RunMine(const MineRequest& request,
                                         const Prepared& prep,
                                         RequestTrace* trace);

  // RunMine with escaping exceptions (bad_alloc in a deep mining
  // allocation, say) converted to an Internal Status. Execute's runner
  // path publishes its Status to every coalesced waiter on the
  // in-flight condvar; an exception thrown between inserting the
  // in-flight entry and notify_all would otherwise leave those waiters
  // blocked forever (and the entry leaked).
  StatusOr<ColossalMiningResult> RunMineNoThrow(const MineRequest& request,
                                                const Prepared& prep,
                                                RequestTrace* trace);

  // RunMineNoThrow behind the admission gate: rejected mines return
  // RESOURCE_EXHAUSTED without mining (joined waiters see the same
  // status — had they run standalone they would have been rejected
  // too). Every cold mine, runner or standalone, goes through here.
  StatusOr<ColossalMiningResult> AdmitAndRunMine(const MineRequest& request,
                                                 const Prepared& prep,
                                                 RequestTrace* trace);

  // AdmitAndRunMine, then the result shared and its payload rendered
  // once (the serialize phase), all into the fresh `response`, whose
  // source becomes kMined on success. Never throws: the runner
  // publishes `response` to its coalesced waiters afterwards, so a
  // failed allocation becomes an Internal status.
  void MineAndRender(const MineRequest& request, const Prepared& prep,
                     RequestTrace* trace, MiningResponse* response);

  // Bumps the per-source response counters + the end-to-end latency
  // histogram for one finished response; every Mine passes through
  // exactly once.
  void NoteResponse(const MiningResponse& response);

  // Flushes a finished request's nonzero phase accumulators into the
  // phase histograms (one sample per touched phase per request).
  void FlushTrace(const RequestTrace& trace);

  const MiningServiceOptions options_;
  // Declared before the components that register metrics into it.
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when options.metrics null
  MetricsRegistry* metrics_;

  Counter* requests_total_;
  Counter* parse_failures_;
  Counter* responses_mined_;
  Counter* responses_cache_;
  Counter* responses_coalesced_;
  Counter* responses_failed_;
  Gauge* inflight_gauge_;
  // colossal_arena_peak_bytes: the largest arena high-water mark any
  // mine has reached so far, the max over per-request arenas and every
  // per-shard mining/re-count arena (the stats line's arena_peak_mb).
  Gauge* arena_peak_gauge_;
  Counter* admission_rejected_;
  Gauge* admitted_mines_gauge_;
  Gauge* admitted_bytes_gauge_;
  Counter* slow_requests_total_;
  Gauge* flight_dropped_gauge_;
  Gauge* uptime_gauge_;
  Histogram* request_seconds_;
  Histogram* phase_seconds_[kNumTracePhases];

  FlightRecorder recorder_;
  const std::chrono::steady_clock::time_point start_time_;

  // Slow-request log sink (stderr unless options.slow_log_path) and the
  // token bucket bounding its emission rate; the mutex serializes line
  // writes, off the fast path unless the log is firing.
  std::FILE* slow_log_ = nullptr;  // null = disabled or stderr fallback
  bool owns_slow_log_ = false;
  std::mutex slow_log_mutex_;
  double slow_log_tokens_;
  std::chrono::steady_clock::time_point slow_log_refill_;

  AdmissionGate admission_;

  DatasetRegistry registry_;
  ResultCache cache_;

  std::mutex inflight_mutex_;
  std::unordered_map<ResultCacheKey, std::shared_ptr<Inflight>,
                     ResultCacheKeyHash>
      inflight_;
};

}  // namespace colossal

#endif  // COLOSSAL_SERVICE_MINING_SERVICE_H_
