#include "service/mining_service.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "common/arena.h"
#include "common/bitvector_kernels.h"
#include "common/hash.h"
#include "common/stopwatch.h"

namespace colossal {

namespace {

// Compiler identity for colossal_build_info, fixed at build time.
#if defined(__clang__)
#define COLOSSAL_COMPILER_INFO "clang " __clang_version__
#elif defined(__GNUC__)
#define COLOSSAL_COMPILER_INFO "gcc " __VERSION__
#else
#define COLOSSAL_COMPILER_INFO "unknown"
#endif

// Slow-request log token bucket: at most kSlowLogBurst lines back to
// back, refilled at kSlowLogPerSecond — a pathological workload where
// every request is slow degrades to a sample, not a stderr flood.
constexpr double kSlowLogBurst = 10.0;
constexpr double kSlowLogPerSecond = 10.0;

// Raises a request trace's arena peak from an arena's high-water mark
// on scope exit, so every RunMine return path (success, Status, early
// bail) still records what the request's arena actually reached.
class ArenaPeakRecorder {
 public:
  ArenaPeakRecorder(std::atomic<int64_t>* sink, const Arena* arena)
      : sink_(sink), arena_(arena) {}
  ~ArenaPeakRecorder() { RaiseArenaPeak(*sink_, arena_->high_water_bytes()); }

 private:
  std::atomic<int64_t>* sink_;
  const Arena* arena_;
};

DatasetRegistryOptions WithMetrics(DatasetRegistryOptions options,
                                   MetricsRegistry* metrics) {
  if (options.metrics == nullptr) options.metrics = metrics;
  return options;
}

ResultCacheOptions WithMetrics(ResultCacheOptions options,
                               MetricsRegistry* metrics) {
  if (options.metrics == nullptr) options.metrics = metrics;
  return options;
}

}  // namespace

const char* ResponseSourceName(ResponseSource source) {
  switch (source) {
    case ResponseSource::kMined:
      return "mined";
    case ResponseSource::kCache:
      return "cache";
    case ResponseSource::kCoalesced:
      return "coalesced";
    case ResponseSource::kFailed:
      return "failed";
  }
  return "unknown";
}

MiningService::MiningService(const MiningServiceOptions& options)
    : options_(options),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      requests_total_(metrics_->GetCounter(
          "colossal_requests_total",
          "Mining request lines received (parse failures included)")),
      parse_failures_(metrics_->GetCounter(
          "colossal_request_parse_failures_total",
          "Request lines rejected by the parser")),
      responses_mined_(metrics_->GetCounter(
          "colossal_responses_mined_total",
          "Responses produced by running Pattern-Fusion")),
      responses_cache_(
          metrics_->GetCounter("colossal_responses_cache_total",
                               "Responses served from the result cache")),
      responses_coalesced_(metrics_->GetCounter(
          "colossal_responses_coalesced_total",
          "Responses shared with an identical in-flight request")),
      responses_failed_(metrics_->GetCounter(
          "colossal_responses_failed_total",
          "Responses that carried an error status")),
      inflight_gauge_(metrics_->GetGauge("colossal_inflight_mines",
                                         "Distinct mines currently running")),
      arena_peak_gauge_(metrics_->GetGauge(
          "colossal_arena_peak_bytes",
          "Largest arena high-water mark any mine has reached")),
      admission_rejected_(metrics_->GetCounter(
          "colossal_admission_rejected_total",
          "Mines rejected by the admission gate (RESOURCE_EXHAUSTED)")),
      admitted_mines_gauge_(
          metrics_->GetGauge("colossal_admitted_mines",
                             "Mines currently holding an admission slot")),
      admitted_bytes_gauge_(metrics_->GetGauge(
          "colossal_admitted_mine_bytes",
          "Estimated dataset bytes of currently admitted mines")),
      slow_requests_total_(metrics_->GetCounter(
          "colossal_slow_requests_total",
          "Requests whose end-to-end time reached --slow-request-ms")),
      flight_dropped_gauge_(metrics_->GetGauge(
          "colossal_flight_dropped_total",
          "Flight records overwritten before they were ever read")),
      uptime_gauge_(metrics_->GetGauge(
          "colossal_uptime_seconds",
          "Seconds since this service was constructed")),
      request_seconds_(metrics_->GetHistogram(
          "colossal_request_seconds",
          "End-to-end request latency (parse through mine)", 1e-9)),
      recorder_(options.flight_recorder_capacity),
      start_time_(std::chrono::steady_clock::now()),
      slow_log_tokens_(kSlowLogBurst),
      slow_log_refill_(start_time_),
      admission_(options.max_inflight_mines, options.max_inflight_mine_bytes),
      registry_(WithMetrics(options.registry, metrics_)),
      cache_(WithMetrics(options.cache, metrics_)) {
  for (int i = 0; i < kNumTracePhases; ++i) {
    const TracePhase phase = static_cast<TracePhase>(i);
    phase_seconds_[i] = metrics_->GetHistogram(
        std::string("colossal_phase_") + TracePhaseName(phase) + "_seconds",
        std::string("Wall time spent in the ") + TracePhaseName(phase) +
            " phase, per request",
        1e-9);
  }
  metrics_->SetInfo(
      "colossal_build_info",
      "Build and runtime identity of this serving process",
      std::string("simd=\"") + ActiveBitvectorKernels().name +
          "\",compiler=\"" COLOSSAL_COMPILER_INFO "\"");
  if (options_.slow_request_ms >= 0) {
    if (options_.slow_log_path.empty()) {
      slow_log_ = stderr;
    } else {
      slow_log_ = std::fopen(options_.slow_log_path.c_str(), "a");
      if (slow_log_ == nullptr) {
        std::fprintf(stderr,
                     "warning: cannot open --slow-log-file %s; "
                     "slow requests go to stderr\n",
                     options_.slow_log_path.c_str());
        slow_log_ = stderr;
      } else {
        owns_slow_log_ = true;
      }
    }
  }
}

MiningService::~MiningService() {
  if (owns_slow_log_ && slow_log_ != nullptr) std::fclose(slow_log_);
}

std::string MiningService::RenderMetrics() {
  uptime_gauge_->Set(std::chrono::duration_cast<std::chrono::seconds>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count());
  return metrics_->RenderText();
}

void MiningService::RecordFlight(const FlightRecord& record) {
  recorder_.Record(record);
  // Mirrored after every Record: dropped() only advances when a record
  // lands, so the gauge is always current at scrape time.
  flight_dropped_gauge_->Set(static_cast<int64_t>(recorder_.dropped()));
  if (options_.slow_request_ms < 0 ||
      record.total_nanos < options_.slow_request_ms * 1000000) {
    return;
  }
  slow_requests_total_->Increment();
  if (slow_log_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(slow_log_mutex_);
    const auto now = std::chrono::steady_clock::now();
    slow_log_tokens_ +=
        std::chrono::duration<double>(now - slow_log_refill_).count() *
        kSlowLogPerSecond;
    if (slow_log_tokens_ > kSlowLogBurst) slow_log_tokens_ = kSlowLogBurst;
    slow_log_refill_ = now;
    if (slow_log_tokens_ < 1.0) return;  // rate limited; counter still bumped
    slow_log_tokens_ -= 1.0;
    std::string line;
    line.reserve(512);
    line += "{\"slow_request\":";
    AppendFlightRecordJson(record, &line);
    line += "}\n";
    std::fputs(line.c_str(), slow_log_);
    std::fflush(slow_log_);
  }
}

void MiningService::NoteParseFailure() {
  requests_total_->Increment();
  parse_failures_->Increment();
}

void MiningService::RecordPhaseNanos(TracePhase phase, int64_t nanos) {
  phase_seconds_[static_cast<int>(phase)]->Record(nanos);
}

void MiningService::NoteResponse(const MiningResponse& response) {
  switch (response.source) {
    case ResponseSource::kMined:
      responses_mined_->Increment();
      break;
    case ResponseSource::kCache:
      responses_cache_->Increment();
      break;
    case ResponseSource::kCoalesced:
      responses_coalesced_->Increment();
      break;
    case ResponseSource::kFailed:
      responses_failed_->Increment();
      break;
  }
  request_seconds_->Record(static_cast<int64_t>(response.seconds * 1e9));
}

void MiningService::FlushTrace(const RequestTrace& trace) {
  for (int i = 0; i < kNumTracePhases; ++i) {
    const int64_t nanos = trace.nanos(static_cast<TracePhase>(i));
    if (nanos > 0) phase_seconds_[i]->Record(nanos);
  }
}

MiningService::Prepared MiningService::Prepare(const MineRequest& request,
                                               RequestTrace* trace) {
  Prepared prep;
  bool is_manifest = request.format == "manifest";
  if (!is_manifest && request.format == "auto") {
    // Registry-side sniff cache keyed by the file's signature: a warm
    // auto-format request costs one stat here instead of an open+read
    // of the magic bytes, and a rewritten file re-sniffs automatically.
    PhaseTimer timer(trace, TracePhase::kRegistry);
    is_manifest = registry_.SniffIsManifest(request.dataset_path);
  }

  int64_t rows = 0;
  if (!is_manifest) {
    if (request.shards_requested) {
      prep.status = Status::InvalidArgument(
          "--shards requires a shard manifest dataset, and " +
          request.dataset_path + " is not one");
      return prep;
    }
    StatusOr<DatasetHandle> handle = [&] {
      PhaseTimer timer(trace, TracePhase::kRegistry);
      return registry_.Get(request.dataset_path, request.format);
    }();
    if (!handle.ok()) {
      prep.status = handle.status();
      return prep;
    }
    prep.handle = *std::move(handle);
    prep.registry_hit = prep.handle.registry_hit;
    prep.fingerprint = prep.handle.fingerprint;
    prep.admission_bytes = prep.handle.db->ApproxMemoryBytes();
    rows = prep.handle.db->num_transactions();
  } else {
    prep.sharded = true;
    prep.shard_mode = request.shard_mode;
    StatusOr<ShardManifestHandle> handle = [&] {
      PhaseTimer timer(trace, TracePhase::kRegistry);
      return registry_.GetManifest(request.dataset_path);
    }();
    if (!handle.ok()) {
      prep.status = handle.status();
      return prep;
    }
    prep.manifest = std::move(handle->manifest);
    prep.registry_hit = handle->registry_hit;
    prep.fingerprint = prep.manifest->parent_fingerprint;
    // The whole dataset's estimated footprint, not one shard's: the
    // admission gate bounds the work a request represents, while the
    // residency governor separately bounds how much of it is ever
    // resident at once.
    for (const ShardInfo& shard : prep.manifest->shards) {
      prep.admission_bytes +=
          EstimateShardResidentBytes(shard, prep.manifest->num_items);
    }
    rows = prep.manifest->num_transactions;
  }

  // Request identity — including the fuse-mode salt that keeps
  // approximate results from ever answering an exact request — is owned
  // entirely by the request model; the service just asks for it.
  PhaseTimer parse_timer(trace, TracePhase::kParse);
  StatusOr<CanonicalRequest> canonical = CanonicalizeRequestForSize(
      rows, request.options,
      prep.sharded && prep.shard_mode == ShardMergeMode::kFuse);
  parse_timer.Stop();
  if (!canonical.ok()) {
    prep.status = canonical.status();
    return prep;
  }
  prep.canonical = *std::move(canonical);
  prep.key = ResultCacheKey{prep.fingerprint, prep.canonical.options_hash};
  return prep;
}

StatusOr<ColossalMiningResult> MiningService::RunMine(
    const MineRequest& request, const Prepared& prep, RequestTrace* trace) {
  // Execution options: canonical, except the execution knobs — thread
  // count and shard parallelism, which canonicalization resets because
  // output is bit-identical for any value — taken from the request (a
  // request without --threads gets the service's mining threads).
  ColossalMinerOptions exec = prep.canonical.options;
  exec.num_threads = request.options.num_threads != 0
                         ? request.options.num_threads
                         : options_.mining_threads;
  exec.shard_parallelism = request.options.shard_parallelism;
  // One arena per request: every mining temporary this request
  // allocates frees when the arena goes out of scope. The core detaches
  // results onto the heap before returning them, so the cached
  // shared_ptr never references this arena. Its peak lands in the
  // request's trace next to the shard arenas' peaks; RunMineNoThrow
  // folds that into the global gauge.
  Arena request_arena;
  ArenaPeakRecorder record_peak(&trace->arena_peak_bytes, &request_arena);
  if (!prep.sharded) {
    return MineColossal(*prep.handle.db, exec, &request_arena, trace);
  }
  // Shards load through the registry's concurrent-admission API:
  // GetPinned reserves the estimate before reading, so however many
  // shard jobs the fan-out runs, resident + reserved bytes never pass
  // the registry budget; the pin rides the LoadedShard and releases
  // when the shard job drops it.
  ShardResidencyOptions residency;
  residency.budget_bytes = options_.registry.memory_budget_bytes;
  residency.trace = trace;
  ShardedMiner miner(
      *prep.manifest,
      [this, trace](const std::string& path,
                    int64_t estimated_bytes) -> StatusOr<LoadedShard> {
        // Timed from whichever fan-out thread runs the load — the trace
        // accumulators are atomic for exactly this.
        PhaseTimer timer(trace, TracePhase::kRegistry);
        StatusOr<PinnedDatasetHandle> shard =
            registry_.GetPinned(path, "auto", estimated_bytes);
        if (!shard.ok()) return shard.status();
        if (trace != nullptr && shard->admission_wait_nanos > 0) {
          trace->AddAdmissionWaitNanos(shard->admission_wait_nanos);
        }
        return LoadedShard{shard->handle.db, shard->handle.fingerprint,
                           std::move(shard->pin)};
      },
      residency);
  return miner.Mine(exec, prep.shard_mode, &request_arena);
}

StatusOr<ColossalMiningResult> MiningService::RunMineNoThrow(
    const MineRequest& request, const Prepared& prep, RequestTrace* trace) {
  StatusOr<ColossalMiningResult> mined =
      [&]() -> StatusOr<ColossalMiningResult> {
    try {
      return RunMine(request, prep, trace);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("mining threw: ") + e.what());
    } catch (...) {
      return Status::Internal("mining threw a non-standard exception");
    }
  }();
  // The trace holds this request's own arena peak (the flight record
  // reads it); the gauge keeps the lifetime max over all requests.
  arena_peak_gauge_->RaiseTo(
      trace->arena_peak_bytes.load(std::memory_order_relaxed));
  return mined;
}

StatusOr<ColossalMiningResult> MiningService::AdmitAndRunMine(
    const MineRequest& request, const Prepared& prep, RequestTrace* trace) {
  Status admit = admission_.TryAdmit(prep.admission_bytes);
  if (!admit.ok()) {
    admission_rejected_->Increment();
    return admit;
  }
  admitted_mines_gauge_->Set(admission_.inflight());
  admitted_bytes_gauge_->Set(admission_.admitted_bytes());
  StatusOr<ColossalMiningResult> mined = RunMineNoThrow(request, prep, trace);
  admission_.Release(prep.admission_bytes);
  admitted_mines_gauge_->Set(admission_.inflight());
  admitted_bytes_gauge_->Set(admission_.admitted_bytes());
  return mined;
}

MiningResponse MiningService::Execute(const MineRequest& request,
                                      const Prepared& prep,
                                      RequestTrace* trace) {
  Stopwatch stopwatch;
  MiningResponse response;
  // Set before the status check: a request refused after its dataset
  // resolved (invalid options) still names the dataset it was for.
  response.dataset_fingerprint = prep.fingerprint;
  if (!prep.status.ok()) {
    response.status = prep.status;
    response.seconds = stopwatch.ElapsedSeconds();
    return response;
  }
  response.dataset_registry_hit = prep.registry_hit;
  response.options_hash = prep.canonical.options_hash;
  if (prep.sharded) {
    response.shards = static_cast<int>(prep.manifest->shards.size());
  }

  // Serve from the cache, join an identical in-flight request, or
  // become the runner for one. "Not cached" and "not in flight" are one
  // decision under inflight_mutex_, and a runner caches its result
  // before it leaves the in-flight table, so two identical requests
  // never both mine. Lock order: inflight_mutex_, then the cache's.
  // A key collision with different canonical options (verified below)
  // mines standalone: correct result, just no dedup for that request.
  std::shared_ptr<const ColossalMiningResult> cached;
  std::shared_ptr<Inflight> job;
  bool runner = false;
  bool standalone = false;
  PhaseTimer cache_timer(trace, TracePhase::kCacheLookup);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    cached = cache_.Get(prep.key, prep.canonical.options);
    if (cached == nullptr) {
      auto it = inflight_.find(prep.key);
      if (it == inflight_.end()) {
        job = std::make_shared<Inflight>();
        job->canonical = prep.canonical.options;
        inflight_.emplace(prep.key, job);
        inflight_gauge_->Set(static_cast<int64_t>(inflight_.size()));
        runner = true;
      } else if (it->second->canonical == prep.canonical.options) {
        job = it->second;
      } else {
        standalone = true;
      }
    }
  }
  cache_timer.Stop();
  if (cached != nullptr) {
    response.result = std::move(cached);
    response.source = ResponseSource::kCache;
    response.seconds = stopwatch.ElapsedSeconds();
    return response;
  }
  if (standalone) {
    StatusOr<ColossalMiningResult> mined =
        AdmitAndRunMine(request, prep, trace);
    response.status = mined.status();
    if (mined.ok()) {
      response.result =
          std::make_shared<const ColossalMiningResult>(*std::move(mined));
      response.source = ResponseSource::kMined;
      cache_.Put(prep.key, prep.canonical.options, response.result);
    }
    response.seconds = stopwatch.ElapsedSeconds();
    return response;
  }

  if (!runner) {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(lock, [&] { return job->done; });
    response.status = job->status;
    response.result = job->result;
    response.source =
        job->status.ok() ? ResponseSource::kCoalesced : ResponseSource::kFailed;
    response.seconds = stopwatch.ElapsedSeconds();
    return response;
  }

  StatusOr<ColossalMiningResult> mined = AdmitAndRunMine(request, prep, trace);

  std::shared_ptr<const ColossalMiningResult> result;
  if (mined.ok()) {
    result = std::make_shared<const ColossalMiningResult>(*std::move(mined));
  }
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->status = mined.status();
    job->result = result;
    job->done = true;
  }
  job->done_cv.notify_all();
  if (mined.ok()) {
    cache_.Put(prep.key, prep.canonical.options, result);
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(prep.key);
    inflight_gauge_->Set(static_cast<int64_t>(inflight_.size()));
  }

  response.status = mined.status();
  response.result = std::move(result);
  response.source =
      mined.ok() ? ResponseSource::kMined : ResponseSource::kFailed;
  response.seconds = stopwatch.ElapsedSeconds();
  return response;
}

MiningResponse MiningService::Mine(const MineRequest& request) {
  return Mine(request, nullptr);
}

MiningResponse MiningService::Mine(const MineRequest& request,
                                   RequestTrace* trace) {
  // Untraced callers still feed the phase histograms through a local
  // trace; callers with their own (the dispatch path) get the phase
  // breakdown back as well.
  RequestTrace local_trace;
  if (trace == nullptr) trace = &local_trace;
  requests_total_->Increment();
  Stopwatch stopwatch;
  const Prepared prep = Prepare(request, trace);
  MiningResponse response = Execute(request, prep, trace);
  response.seconds = stopwatch.ElapsedSeconds();
  FlushTrace(*trace);
  NoteResponse(response);
  return response;
}

}  // namespace colossal
