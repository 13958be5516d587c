// perfbench_probe — the in-process half of the benchmark.
//
//   perfbench_probe verify --requests FILE --payload-dir DIR --lines I,J,...
//       --datasets PATH=KIND:DB,... --seed S
//     Checks every served payload DIR/line_<i>.txt against the database
//     its request line names: each pattern's support must be re-derived
//     exactly from the data and reach the request's support threshold,
//     and no response may exceed k patterns. KIND (microarray | trace |
//     diagplus) names the generator the database came from; the probe
//     regenerates it from --seed, checks the file holds the same content,
//     and scores the first kQualityLines (48) served lines, in file order,
//     against the generator's planted colossal patterns: planted_recall
//     (share served exactly) and approx_error, the paper's Δ(A_P^Q) from
//     core/evaluation (Q: microarray / diagplus the planted set; trace the
//     complete closed set of size >= 40, because all three planted paths
//     are recovered on every request and Δ against them is 0).
//
//   perfbench_probe layers --workload W --requests FILE --replay N
//       --threads T --trace-snap DB --trace-fimi DB --trace-manifest FILE
//       --payload-dir DIR
//     The traced run: replays the first N request lines in-process
//     through each layer's public functions, recording a span (name,
//     start, end, parent, request id) around every call, and times each
//     layer's public entry points on their own. Prints one JSON object of
//     per-layer metrics. trace.payload_mismatch counts replayed payloads
//     that differ from the served ones in DIR.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/arena.h"
#include "common/bitvector.h"
#include "common/bitvector_kernels.h"
#include "common/check.h"
#include "common/itemset.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/colossal_miner.h"
#include "core/evaluation.h"
#include "core/pattern_fusion.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/closed_miner.h"
#include "mining/result_io.h"
#include "net/http_server.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "service/dataset_registry.h"
#include "service/dispatch.h"
#include "service/mining_service.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "shard/shard_manifest.h"
#include "shard/sharded_miner.h"

namespace colossal {
namespace {

using Clock = std::chrono::steady_clock;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<std::string> Split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, separator)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Flat JSON object of named numbers, in insertion order.
class JsonReport {
 public:
  void Add(const std::string& name, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": ") + buffer;
  }
  void AddString(const std::string& name, const std::string& value) {
    std::string escaped;
    for (const char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": \"") +
             escaped + "\"";
  }
  std::string Render() const { return "{" + body_ + "}\n"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// verify

// A dataset the served payloads are checked against, with the generator
// ground truth used for the quality metrics.
struct Reference {
  TransactionDatabase db;
  std::vector<Itemset> planted;
  std::vector<Itemset> quality_q;  // Δ's reference set Q, all colossal
  int quality_min_size = 0;        // the colossal size filter for P and Q
};

StatusOr<Reference> BuildReference(const std::string& kind,
                                   const std::string& db_path,
                                   TransactionDatabase db, uint64_t seed,
                                   int64_t min_support) {
  LabeledDatabase generated;
  if (kind == "microarray") {
    generated = MakeMicroarrayLike(seed);
  } else if (kind == "trace") {
    generated = MakeProgramTraceLike(seed);
  } else if (kind == "diagplus") {
    generated = MakeDiagPlus(40, 20);
  } else {
    return Status::InvalidArgument("unknown dataset kind " + kind);
  }
  if (FingerprintDatabase(db) != FingerprintDatabase(generated.db)) {
    return Status::FailedPrecondition(db_path + " is not the " + kind +
                                      " dataset of seed " +
                                      std::to_string(seed));
  }
  Reference reference;
  reference.planted = generated.planted;
  if (kind == "trace") {
    // The paper's Figure 8 reference: the complete closed set, here
    // restricted to the colossal end (size >= 40).
    MinerOptions options;
    options.min_support_count = min_support;
    StatusOr<MiningResult> closed = MineClosed(db, options);
    if (!closed.ok()) return closed.status();
    reference.quality_min_size = 40;
    for (const FrequentItemset& pattern : closed->patterns) {
      if (pattern.items.size() >= reference.quality_min_size) {
        reference.quality_q.push_back(pattern.items);
      }
    }
  } else {
    reference.quality_q = generated.planted;
    // Planted patterns come largest first.
    reference.quality_min_size = generated.planted.back().size();
  }
  reference.db = std::move(db);
  return reference;
}

// Served lines scored for quality, in file order; the client always
// completes at least this many requests, so the score depends on the seed
// alone.
constexpr size_t kQualityLines = 48;

int RunVerify(const Args& args) {
  Status known = args.CheckKnown({"requests", "payload-dir", "lines",
                                  "datasets", "seed"});
  if (!known.ok()) return Fail(known);
  StatusOr<int64_t> seed = args.GetInt("seed", 1);
  if (!seed.ok()) return Fail(seed.status());
  StatusOr<std::vector<RequestFileLine>> lines =
      ReadRequestFile(args.GetString("requests"));
  if (!lines.ok()) return Fail(lines.status());

  // PATH=KIND:DB — which generator and which (unsharded) database each
  // request path denotes.
  std::map<std::string, std::pair<std::string, std::string>> datasets;
  for (const std::string& entry : Split(args.GetString("datasets"), ',')) {
    const size_t eq = entry.find('=');
    const size_t colon = entry.find(':', eq);
    if (eq == std::string::npos || colon == std::string::npos) {
      return Fail(Status::InvalidArgument("bad --datasets entry " + entry));
    }
    datasets[entry.substr(0, eq)] = {entry.substr(eq + 1, colon - eq - 1),
                                     entry.substr(colon + 1)};
  }

  std::map<std::string, Reference> references;
  int64_t checked = 0;
  int64_t bad = 0;  // payloads with at least one failed check
  std::string first_bad;
  std::vector<double> recalls;
  std::vector<double> errors;
  double patterns = 0;
  bool payload_bad = false;
  auto note_bad = [&](const std::string& what) {
    payload_bad = true;
    if (first_bad.empty()) first_bad = what;
  };
  for (const std::string& index_text : Split(args.GetString("lines"), ',')) {
    const size_t index = std::strtoul(index_text.c_str(), nullptr, 10);
    if (index >= lines->size()) return Fail(Status::OutOfRange(index_text));
    const std::string where = "line " + index_text;
    StatusOr<MineRequest> request = ParseRequestLine((*lines)[index].text);
    if (!request.ok()) return Fail(request.status());
    const auto dataset = datasets.find(request->dataset_path);
    if (dataset == datasets.end()) {
      return Fail(Status::NotFound("no --datasets entry for " +
                                   request->dataset_path));
    }
    const auto& [kind, db_path] = dataset->second;
    auto found = references.find(request->dataset_path);
    if (found == references.end()) {
      StatusOr<TransactionDatabase> db = LoadDatabaseFile(db_path, "auto");
      if (!db.ok()) return Fail(db.status());
      StatusOr<ColossalMinerOptions> canonical =
          CanonicalizeMinerOptions(*db, request->options);
      if (!canonical.ok()) return Fail(canonical.status());
      StatusOr<Reference> built = BuildReference(
          kind, db_path, *std::move(db), static_cast<uint64_t>(*seed),
          canonical->min_support_count);
      if (!built.ok()) return Fail(built.status());
      found = references.emplace(request->dataset_path, *std::move(built))
                  .first;
    }
    const Reference& reference = found->second;
    StatusOr<ColossalMinerOptions> canonical =
        CanonicalizeMinerOptions(reference.db, request->options);
    if (!canonical.ok()) return Fail(canonical.status());

    StatusOr<std::string> payload = ReadFile(args.GetString("payload-dir") +
                                             "/line_" + index_text + ".txt");
    if (!payload.ok()) return Fail(payload.status());
    StatusOr<std::vector<FrequentItemset>> served = ParsePatterns(*payload);
    ++checked;
    payload_bad = false;
    if (!served.ok()) {
      note_bad(where + ": unparsable payload");
      ++bad;
      continue;
    }
    if (served->empty() ||
        static_cast<int64_t>(served->size()) > canonical->k) {
      note_bad(where + ": " + std::to_string(served->size()) + " patterns");
    }
    std::vector<Itemset> mined;
    for (const FrequentItemset& pattern : *served) {
      const int64_t support = reference.db.Support(pattern.items);
      if (pattern.items.empty() || support != pattern.support ||
          support < canonical->min_support_count) {
        note_bad(where + ": pattern " + pattern.items.ToString() +
                 " claims support " + std::to_string(pattern.support) +
                 ", data says " + std::to_string(support));
      }
      mined.push_back(pattern.items);
    }
    if (payload_bad) ++bad;
    if (recalls.size() >= kQualityLines) continue;
    int found_planted = 0;
    for (const Itemset& planted : reference.planted) {
      if (std::find(mined.begin(), mined.end(), planted) != mined.end()) {
        ++found_planted;
      }
    }
    recalls.push_back(static_cast<double>(found_planted) /
                      static_cast<double>(reference.planted.size()));
    const std::vector<Itemset> p =
        FilterBySize(mined, reference.quality_min_size);
    // An answer with no colossal pattern at all approximates nothing.
    errors.push_back(
        p.empty() ? 1.0 : EvaluateApproximation(p, reference.quality_q).error);
    patterns += static_cast<double>(served->size());
  }
  double recall_sum = 0;
  double error_sum = 0;
  for (const double r : recalls) recall_sum += r;
  for (const double e : errors) error_sum += e;
  const double scored =
      static_cast<double>(std::max<size_t>(recalls.size(), 1));
  JsonReport report;
  report.Add("checked", static_cast<double>(checked));
  report.Add("bad", static_cast<double>(bad));
  report.Add("quality_lines", static_cast<double>(recalls.size()));
  report.Add("planted_recall", recall_sum / scored);
  report.Add("approx_error", error_sum / scored);
  report.Add("patterns_mean", patterns / scored);
  report.AddString("first_bad", first_bad);
  std::fputs(report.Render().c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// layers: spans

struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;  // index into the recorder, -1 for a request root
  int request = 0;
};

// In-memory span store, written out when the run ends. Shard loads record
// from the sharded miner's fan-out threads, hence the mutex. Disabled, it
// records nothing and the replay calls run exactly the same code.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Begin(const std::string& name, int parent, int request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, NowNanos(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id < 0) return;
    const int64_t now = NowNanos();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = now;
  }
  // Ends span `id` `nanos` after its start; returns that end.
  int64_t EndAfter(int id, int64_t nanos) {
    if (id < 0) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = span.start + nanos;
    return span.end;
  }
  // A span whose interval is known only after the call it covers.
  void Add(const std::string& name, int64_t start, int64_t end, int parent,
           int request) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, request});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span around one public call.
class Scoped {
 public:
  Scoped(SpanRecorder& recorder, const std::string& name, int parent,
         int request)
      : recorder_(recorder), id_(recorder.Begin(name, parent, request)) {}
  ~Scoped() { recorder_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  const int id_;
};

// The span names the replay records, in blocking-path order. Every
// workload reports all of them (0 where a span never occurs), so the
// metric set is the same for every workload.
const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "request", "service.parse", "service.registry",
      "service.canonicalize", "service.cache_lookup", "mining.pool",
      "core.fusion", "shard.mine", "shard.load", "shard.stitch",
      "service.render"};
  return names;
}

// Self time of every span: its duration minus the union of its children's
// intervals (children of a parallel fan-out may overlap).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back(
          {span.start, span.end});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start;
    for (const auto& [begin, end] : kids) {
      const int64_t from = std::max(begin, reach);
      const int64_t to = std::min(end, spans[i].end);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[i] = spans[i].end - spans[i].start - covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// layers: the in-process replay

struct ReplayContext {
  DatasetRegistry* registry;
  ResultCache* cache;
  int threads;
};

// Serves one request line through the layers' public functions, in the
// order MiningService runs them, with a span around each call. Returns
// the rendered payload.
StatusOr<std::string> ReplayOne(const std::string& line, int request,
                                ReplayContext& context,
                                SpanRecorder& recorder) {
  Scoped root(recorder, "request", -1, request);
  const int parent = root.id();
  StatusOr<MineRequest> parsed = [&] {
    Scoped span(recorder, "service.parse", parent, request);
    return ParseRequestLine(line);
  }();
  if (!parsed.ok()) return parsed.status();
  const bool sharded = [&] {
    Scoped span(recorder, "service.registry", parent, request);
    return context.registry->SniffIsManifest(parsed->dataset_path);
  }();

  std::shared_ptr<const ColossalMiningResult> result;
  uint64_t fingerprint = 0;
  if (sharded) {
    StatusOr<ShardManifestHandle> manifest = [&] {
      Scoped span(recorder, "service.registry", parent, request);
      return context.registry->GetManifest(parsed->dataset_path);
    }();
    if (!manifest.ok()) return manifest.status();
    fingerprint = manifest->manifest->parent_fingerprint;
    StatusOr<CanonicalRequest> canonical = [&] {
      Scoped span(recorder, "service.canonicalize", parent, request);
      return CanonicalizeRequestForSize(manifest->manifest->num_transactions,
                                        parsed->options);
    }();
    if (!canonical.ok()) return canonical.status();
    const ResultCacheKey key{fingerprint, canonical->options_hash};
    {
      Scoped span(recorder, "service.cache_lookup", parent, request);
      result = context.cache->Get(key, canonical->options);
    }
    if (result == nullptr) {
      Scoped mine_span(recorder, "shard.mine", parent, request);
      const int mine_id = mine_span.id();
      // The miner times its three phases back to back into `phases`:
      // pool mining (the shard loads run inside it), stitch, fusion. They
      // become child spans of shard.mine, laid end to end from the call.
      RequestTrace phases;
      ShardResidencyOptions residency;
      residency.budget_bytes = DatasetRegistryOptions().memory_budget_bytes;
      residency.trace = &phases;
      DatasetRegistry* registry = context.registry;
      int pool_id = -1;
      ShardedMiner miner(
          *manifest->manifest,
          [registry, &recorder, &pool_id, request](
              const std::string& path,
              int64_t estimated_bytes) -> StatusOr<LoadedShard> {
            Scoped span(recorder, "shard.load", pool_id, request);
            StatusOr<PinnedDatasetHandle> shard =
                registry->GetPinned(path, "auto", estimated_bytes);
            if (!shard.ok()) return shard.status();
            return LoadedShard{shard->handle.db, shard->handle.fingerprint,
                               std::move(shard->pin)};
          },
          residency);
      ColossalMinerOptions exec = canonical->options;
      exec.num_threads = context.threads;
      Arena arena;
      pool_id = recorder.Begin("mining.pool", mine_id, request);
      StatusOr<ColossalMiningResult> mined =
          miner.Mine(exec, parsed->shard_mode, &arena);
      if (!mined.ok()) return mined.status();
      const int64_t stitch_begin =
          recorder.EndAfter(pool_id, phases.nanos(TracePhase::kPoolMine));
      const int64_t fusion_begin =
          stitch_begin + phases.nanos(TracePhase::kStitch);
      recorder.Add("shard.stitch", stitch_begin, fusion_begin, mine_id,
                   request);
      recorder.Add("core.fusion", fusion_begin,
                   fusion_begin + phases.nanos(TracePhase::kFusion), mine_id,
                   request);
      result = std::make_shared<const ColossalMiningResult>(*std::move(mined));
      context.cache->Put(key, canonical->options, result);
    }
  } else {
    StatusOr<DatasetHandle> handle = [&] {
      Scoped span(recorder, "service.registry", parent, request);
      return context.registry->Get(parsed->dataset_path, parsed->format);
    }();
    if (!handle.ok()) return handle.status();
    fingerprint = handle->fingerprint;
    StatusOr<CanonicalRequest> canonical = [&] {
      Scoped span(recorder, "service.canonicalize", parent, request);
      return CanonicalizeRequest(*handle->db, parsed->options);
    }();
    if (!canonical.ok()) return canonical.status();
    const ResultCacheKey key{fingerprint, canonical->options_hash};
    {
      Scoped span(recorder, "service.cache_lookup", parent, request);
      result = context.cache->Get(key, canonical->options);
    }
    if (result == nullptr) {
      Arena arena;
      StatusOr<std::vector<Pattern>> pool = [&] {
        Scoped span(recorder, "mining.pool", parent, request);
        return BuildInitialPool(*handle->db,
                                canonical->options.min_support_count,
                                canonical->options.initial_pool_max_size,
                                canonical->options.pool_miner,
                                context.threads, &arena,
                                canonical->options.constraints);
      }();
      if (!pool.ok()) return pool.status();
      ColossalMinerOptions fuse = canonical->options;
      fuse.num_threads = context.threads;
      StatusOr<ColossalMiningResult> mined = [&] {
        Scoped span(recorder, "core.fusion", parent, request);
        return FuseColossalFromPool(handle->db->num_transactions(),
                                    *std::move(pool), fuse, &arena);
      }();
      if (!mined.ok()) return mined.status();
      result = std::make_shared<const ColossalMiningResult>(*std::move(mined));
      context.cache->Put(key, canonical->options, result);
    }
  }
  Scoped span(recorder, "service.render", parent, request);
  MiningResponse response;
  response.result = result;
  return RenderPatternsPayload(response);
}

// ---------------------------------------------------------------------------
// layers: timing helpers

// Median over `rounds` rounds of the per-call nanoseconds of `call`, each
// round running enough calls to last about `round_nanos`.
double NanosPerCall(const std::function<void()>& call, int rounds = 5,
                    int64_t round_nanos = 20'000'000) {
  int64_t calls = 1;
  while (true) {  // size a round
    const int64_t begin = NowNanos();
    for (int64_t i = 0; i < calls; ++i) call();
    if (NowNanos() - begin >= round_nanos / 10 || calls >= (1 << 30)) break;
    calls *= 2;
  }
  calls *= 10;
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const int64_t begin = NowNanos();
    for (int64_t i = 0; i < calls; ++i) call();
    per_call.push_back(static_cast<double>(NowNanos() - begin) /
                       static_cast<double>(calls));
  }
  return Median(per_call);
}

// Median wall milliseconds of `runs` runs of `call`.
double MedianMillis(const std::function<void()>& call, int runs) {
  std::vector<double> millis;
  for (int r = 0; r < runs; ++r) {
    const int64_t begin = NowNanos();
    call();
    millis.push_back(static_cast<double>(NowNanos() - begin) / 1e6);
  }
  return Median(millis);
}

// Sink for computed values, so timed calls are never optimized away.
std::atomic<int64_t> g_sink{0};
void Consume(int64_t value) {
  g_sink.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> RandomWords(Rng& rng, size_t n) {
  std::vector<uint64_t> words(n);
  for (uint64_t& word : words) word = rng.NextUint64();
  return words;
}

void AddKernelMetrics(JsonReport& report) {
  Rng rng(12345);
  const std::vector<uint64_t> a1 = RandomWords(rng, 1);
  const std::vector<uint64_t> b1 = RandomWords(rng, 1);
  const std::vector<uint64_t> a69 = RandomWords(rng, 69);
  const std::vector<uint64_t> b69 = RandomWords(rng, 69);
  const std::vector<uint64_t> src18 = RandomWords(rng, 18);
  std::vector<uint64_t> dst69 = RandomWords(rng, 69);
  const BitvectorKernels& k = ActiveBitvectorKernels();
  report.Add("common.and_count_ns_1w", NanosPerCall([&] {
               Consume(k.and_count_words(a1.data(), b1.data(), 1));
             }));
  report.Add("common.or_count_ns_1w", NanosPerCall([&] {
               Consume(k.or_count_words(a1.data(), b1.data(), 1));
             }));
  report.Add("common.and_none_ns_1w", NanosPerCall([&] {
               Consume(k.and_none_words(a1.data(), b1.data(), 1));
             }));
  const double and_count_69 = NanosPerCall(
      [&] { Consume(k.and_count_words(a69.data(), b69.data(), 69)); });
  report.Add("common.and_count_ns_69w", and_count_69);
  // A 1,099-row shard's support set (18 words) stitched into a
  // 4,395-row global one at row offset 1,099 (word 17, bit 11).
  report.Add("common.or_shifted_ns_18w", NanosPerCall([&] {
               k.or_shifted_words(dst69.data(), src18.data(), 18, 17, 11);
               Consume(static_cast<int64_t>(dst69[20]));
             }));

  SetBitvectorForceScalar(true);
  const BitvectorKernels& scalar = ActiveBitvectorKernels();
  const double scalar_69 = NanosPerCall([&] {
    Consume(scalar.and_count_words(a69.data(), b69.data(), 69));
  });
  SetBitvectorForceScalar(false);
  report.Add("common.avx2_over_scalar", scalar_69 / and_count_69);

  // Large AndCount against a streaming ceiling over the same two 8 MiB
  // buffers: a plain read-and-sum loop, which reads the same bytes and
  // does no popcount work. Both in words read per second.
  constexpr size_t kBig = size_t{1} << 20;
  const std::vector<uint64_t> big_a = RandomWords(rng, kBig);
  const std::vector<uint64_t> big_b = RandomWords(rng, kBig);
  const double kernel_ns = NanosPerCall(
      [&] { Consume(k.and_count_words(big_a.data(), big_b.data(), kBig)); },
      5, 50'000'000);
  const double ceiling_ns = NanosPerCall(
      [&] {
        uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (size_t i = 0; i < kBig; i += 4) {
          s0 += big_a[i] ^ big_b[i];
          s1 += big_a[i + 1] ^ big_b[i + 1];
          s2 += big_a[i + 2] ^ big_b[i + 2];
          s3 += big_a[i + 3] ^ big_b[i + 3];
        }
        Consume(static_cast<int64_t>(s0 + s1 + s2 + s3));
      },
      5, 50'000'000);
  report.Add("common.kernel_gwords_per_s", 2.0 * kBig / kernel_ns);
  report.Add("common.ceiling_gwords_per_s", 2.0 * kBig / ceiling_ns);
}

// ---------------------------------------------------------------------------
// layers

// The replay: a warm-up (dataset loads; on warm_hits also the mines that
// fill the cache), then one untraced and one traced pass over the same
// lines. Cold workloads get a fresh cache per pass, so every pass mines;
// warm_hits keeps the warmed cache, so every pass hits. Reports the span
// metrics, and counts replayed payloads that differ from the served ones
// in `payload_dir` (line_<i>.txt).
Status AddReplayMetrics(const std::vector<std::string>& lines, bool warm,
                        int threads, const std::string& payload_dir,
                        DatasetRegistry& registry, JsonReport& report) {
  ResultCache warm_cache;
  int64_t mismatched = 0;
  auto run_pass = [&](SpanRecorder& recorder, bool check) -> Status {
    ResultCache fresh;
    ReplayContext context{&registry, warm ? &warm_cache : &fresh, threads};
    for (size_t i = 0; i < lines.size(); ++i) {
      StatusOr<std::string> payload =
          ReplayOne(lines[i], static_cast<int>(i), context, recorder);
      if (!payload.ok()) return payload.status();
      if (!check) continue;
      StatusOr<std::string> served =
          ReadFile(payload_dir + "/line_" + std::to_string(i) + ".txt");
      if (!served.ok() || *served != *payload) ++mismatched;
    }
    return Status::Ok();
  };
  // The warm-up loads every dataset and shard the lines name (the cold
  // lines all name one); on warm_hits it mines each line once into the
  // cache the passes then hit.
  SpanRecorder off(false);
  ResultCache throwaway;
  ReplayContext warm_up{&registry, warm ? &warm_cache : &throwaway, threads};
  for (size_t i = 0; i < (warm ? lines.size() : 1); ++i) {
    StatusOr<std::string> payload =
        ReplayOne(lines[i], static_cast<int>(i), warm_up, off);
    if (!payload.ok()) return payload.status();
  }
  const int64_t untraced_begin = NowNanos();
  Status passed = run_pass(off, /*check=*/true);
  if (!passed.ok()) return passed;
  const int64_t untraced_nanos = NowNanos() - untraced_begin;
  SpanRecorder traced(true);
  const int64_t traced_begin = NowNanos();
  passed = run_pass(traced, /*check=*/false);
  if (!passed.ok()) return passed;
  const int64_t traced_nanos = NowNanos() - traced_begin;

  // Per request: total self time of each span name; then the median over
  // requests (0 for a name the workload never records).
  const std::vector<Span>& spans = traced.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> per_name;
  for (const std::string& name : SpanNames()) {
    per_name[name].assign(lines.size(), 0.0);
  }
  std::vector<double> root_ms;
  std::vector<double> blocking_ms;  // root minus its own self time
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double self_ms = static_cast<double>(self[i]) / 1e6;
    per_name[span.name][static_cast<size_t>(span.request)] += self_ms;
    if (span.parent < 0) {
      const double duration = static_cast<double>(span.end - span.start) / 1e6;
      root_ms.push_back(duration);
      blocking_ms.push_back(duration - self_ms);
    }
  }
  for (const std::string& name : SpanNames()) {
    report.Add("span." + name + ".self_ms", Median(per_name[name]));
  }
  report.Add("trace.inproc_p50_ms", Median(root_ms));
  report.Add("trace.blocking_self_ms", Median(blocking_ms));
  report.Add("trace.spans", static_cast<double>(spans.size()));
  report.Add("trace.replayed", static_cast<double>(lines.size()));
  report.Add("trace.payload_mismatch", static_cast<double>(mismatched));
  report.Add("obs.span_overhead_pct",
             100.0 * static_cast<double>(traced_nanos - untraced_nanos) /
                 static_cast<double>(untraced_nanos));
  return Status::Ok();
}

// Pool mining and fusion on one request's dataset and canonical options,
// sequential vs. `threads` wide. Leaves the pool and a fused result for
// the metrics that need realistic inputs.
void AddMiningAndCoreMetrics(const TransactionDatabase& db,
                             const ColossalMinerOptions& canonical,
                             int threads, JsonReport& report,
                             std::vector<Pattern>* pool,
                             ColossalMiningResult* fused) {
  auto build_pool = [&](int n) {
    StatusOr<std::vector<Pattern>> built = BuildInitialPool(
        db, canonical.min_support_count, canonical.initial_pool_max_size,
        PoolMiner::kApriori, n);
    COLOSSAL_CHECK(built.ok());
    return *std::move(built);
  };
  const double pool_t1 = MedianMillis([&] { build_pool(1); }, 3);
  const double pool_tn = MedianMillis([&] { build_pool(threads); }, 3);
  *pool = build_pool(threads);
  report.Add("mining.pool_ms_t1", pool_t1);
  report.Add("mining.pool_ms_tN", pool_tn);
  report.Add("mining.pool_scaling", pool_t1 / pool_tn);
  report.Add("mining.pool_size", static_cast<double>(pool->size()));
  MinerOptions apriori;
  apriori.min_support_count = canonical.min_support_count;
  apriori.max_pattern_size = canonical.initial_pool_max_size;
  StatusOr<MiningResult> mined = MineApriori(db, apriori);
  COLOSSAL_CHECK(mined.ok());
  report.Add("mining.nodes_expanded",
             static_cast<double>(mined->stats.nodes_expanded));

  // The pool is copied before each timed run: FuseColossalFromPool
  // consumes it, and the service hands it over by move.
  auto fusion_ms = [&](int n) {
    std::vector<double> millis;
    for (int run = 0; run < 3; ++run) {
      std::vector<Pattern> copy = *pool;
      ColossalMinerOptions options = canonical;
      options.num_threads = n;
      const int64_t begin = NowNanos();
      StatusOr<ColossalMiningResult> result = FuseColossalFromPool(
          db.num_transactions(), std::move(copy), options);
      millis.push_back(static_cast<double>(NowNanos() - begin) / 1e6);
      COLOSSAL_CHECK(result.ok());
      *fused = *std::move(result);
    }
    return Median(millis);
  };
  const double fusion_t1 = fusion_ms(1);
  const double fusion_tn = fusion_ms(threads);
  // Σ over iterations of K × the pool that iteration searched.
  double ball_candidates = 0;
  double pool_in = static_cast<double>(pool->size());
  for (const FusionIterationStats& iteration : fused->iteration_stats) {
    ball_candidates += canonical.k * pool_in;
    pool_in = static_cast<double>(iteration.pool_size);
  }
  report.Add("core.fusion_ms_t1", fusion_t1);
  report.Add("core.fusion_ms_tN", fusion_tn);
  report.Add("core.fusion_scaling", fusion_t1 / fusion_tn);
  report.Add("core.iterations", fused->iterations);
  report.Add("core.converged", fused->converged ? 1.0 : 0.0);
  report.Add("core.ball_candidates", ball_candidates);
  report.Add("core.ns_per_ball_candidate", fusion_t1 * 1e6 / ball_candidates);

  // FuseOnce's absorbed check: a pool member against a large fused
  // pattern (the largest fused result, ~100 items on ALL-like data).
  const Itemset& big = fused->patterns.front().items;
  size_t member = 0;
  report.Add("common.itemset_subset_ns", NanosPerCall([&] {
               Consume((*pool)[member].items.IsSubsetOf(big));
               member = member + 1 == pool->size() ? 0 : member + 1;
             }));
}

// The hit path (cache, render) and the framing of one reply carrying
// `result`, plus the flight recorder.
void AddServiceNetObsMetrics(const std::string& line, uint64_t fingerprint,
                             const CanonicalRequest& canonical,
                             const ColossalMiningResult& result,
                             JsonReport& report) {
  MiningResponse response;
  response.result = std::make_shared<const ColossalMiningResult>(result);
  ResultCache cache;
  const ResultCacheKey key{fingerprint, canonical.options_hash};
  cache.Put(key, canonical.options, response.result);
  report.Add("service.cache_hit_ns", NanosPerCall([&] {
               Consume(cache.Get(key, canonical.options) != nullptr);
             }));
  const std::string payload = RenderPatternsPayload(response);
  const double render_ns = NanosPerCall([&] {
    Consume(static_cast<int64_t>(RenderPatternsPayload(response).size()));
  });
  report.Add("service.render_us_per_kb",
             render_ns / 1e3 / (static_cast<double>(payload.size()) / 1024));

  // HttpFramer and LineFramer are private to net/, so these time the
  // public framing entry points of one POST /mine and one counted reply.
  const std::string raw = "POST /mine HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Content-Length: " +
                          std::to_string(line.size()) + "\r\n\r\n" + line;
  HttpResponse http_response;
  http_response.body = payload;
  report.Add("net.http_frame_ns", NanosPerCall([&] {
               StatusOr<HttpRequest> request = ParseHttpRequest(raw);
               COLOSSAL_CHECK(request.ok());
               Consume(static_cast<int64_t>(
                   SerializeHttpResponse(http_response, true).size()));
             }));
  ServeOutcome outcome;
  outcome.kind = ServeOutcome::Kind::kResponse;
  outcome.response = response;
  outcome.response.source = ResponseSource::kCache;
  outcome.patterns_payload = payload;
  outcome.patterns_rendered = true;
  report.Add("net.line_frame_ns", NanosPerCall([&] {
               Consume(static_cast<int64_t>(
                   FrameTcpReply(outcome, true).data.size()));
             }));

  FlightRecorder recorder;
  FlightRecord record;
  SetFlightField(record.dataset, "all.snap");
  report.Add("obs.flight_record_ns", NanosPerCall([&] {
               record.id = recorder.MintId();
               recorder.Record(record);
             }));
}

// Exact ShardedMiner::Mine over the Replace-like 4-shard manifest,
// sequential vs. fanned out, with the shards resident in `registry`.
Status AddShardMetrics(const std::string& manifest_path, int threads,
                       DatasetRegistry& registry, JsonReport& report) {
  StatusOr<ShardManifest> manifest = ReadShardManifestFile(manifest_path);
  if (!manifest.ok()) return manifest.status();
  StatusOr<MineRequest> request =
      ParseRequestLine("--in " + manifest_path +
                       " --shards exact --sigma 0.03 --k 100 --pool-size 3");
  if (!request.ok()) return request.status();
  RequestTrace trace;
  auto mine = [&](int parallelism, RequestTrace* phases) {
    ShardResidencyOptions residency;
    residency.budget_bytes = DatasetRegistryOptions().memory_budget_bytes;
    residency.trace = phases;
    ShardedMiner miner(
        *manifest,
        [&registry](const std::string& path,
                    int64_t estimated) -> StatusOr<LoadedShard> {
          StatusOr<PinnedDatasetHandle> shard =
              registry.GetPinned(path, "auto", estimated);
          if (!shard.ok()) return shard.status();
          return LoadedShard{shard->handle.db, shard->handle.fingerprint,
                             std::move(shard->pin)};
        },
        residency);
    ColossalMinerOptions options = request->options;
    options.num_threads = threads;
    options.shard_parallelism = parallelism;
    COLOSSAL_CHECK(miner.Mine(options, ShardMergeMode::kExact).ok());
  };
  mine(1, nullptr);  // loads the shards
  constexpr int kRuns = 3;
  report.Add("shard.mine_ms_p1",
             MedianMillis([&] { mine(1, nullptr); }, kRuns));
  report.Add("shard.mine_ms_pN",
             MedianMillis([&] { mine(std::min(threads, 4), &trace); }, kRuns));
  report.Add("shard.stitch_ms",
             static_cast<double>(trace.nanos(TracePhase::kStitch)) / 1e6 /
                 kRuns);
  return Status::Ok();
}

int RunLayers(const Args& args) {
  Status known = args.CheckKnown(
      {"workload", "requests", "replay", "threads", "trace-snap",
       "trace-fimi", "trace-manifest", "payload-dir"});
  if (!known.ok()) return Fail(known);
  StatusOr<int64_t> replay = args.GetInt("replay", 4);
  if (!replay.ok()) return Fail(replay.status());
  StatusOr<int64_t> threads = args.GetInt("threads", 1);
  if (!threads.ok()) return Fail(threads.status());
  StatusOr<std::vector<RequestFileLine>> file =
      ReadRequestFile(args.GetString("requests"));
  if (!file.ok()) return Fail(file.status());
  std::vector<std::string> lines;
  for (size_t i = 0; i < file->size() && i < static_cast<size_t>(*replay);
       ++i) {
    lines.push_back((*file)[i].text);
  }
  if (lines.empty()) return Fail(Status::InvalidArgument("need --replay >= 1"));

  JsonReport report;
  AddKernelMetrics(report);
  DatasetRegistry registry;
  Status status = AddReplayMetrics(
      lines, args.GetString("workload") == "warm_hits",
      static_cast<int>(*threads), args.GetString("payload-dir"), registry,
      report);
  if (!status.ok()) return Fail(status);

  // The service entry points, and mining and core, on this workload's
  // first request: its dataset (the Replace-like snapshot stands in for
  // the manifest) and its canonical options.
  StatusOr<MineRequest> first = ParseRequestLine(lines[0]);
  if (!first.ok()) return Fail(first.status());
  report.Add("service.parse_ns", NanosPerCall([&] {
               Consume(ParseRequestLine(lines[0]).ok());
             }));
  const std::string path = registry.SniffIsManifest(first->dataset_path)
                               ? args.GetString("trace-snap")
                               : first->dataset_path;
  StatusOr<DatasetHandle> dataset = registry.Get(path, "auto");
  if (!dataset.ok()) return Fail(dataset.status());
  report.Add("service.registry_hit_ns", NanosPerCall([&] {
               Consume(registry.Get(path, "auto").ok());
             }));
  const TransactionDatabase& db = *dataset->db;
  report.Add("service.canonicalize_ns", NanosPerCall([&] {
               Consume(CanonicalizeRequestForSize(db.num_transactions(),
                                                  first->options)
                           .ok());
             }));
  StatusOr<CanonicalRequest> canonical =
      CanonicalizeRequest(db, first->options);
  if (!canonical.ok()) return Fail(canonical.status());
  std::vector<Pattern> pool;
  ColossalMiningResult fused;
  AddMiningAndCoreMetrics(db, canonical->options, static_cast<int>(*threads),
                          report, &pool, &fused);
  AddServiceNetObsMetrics(lines[0], dataset->fingerprint, *canonical, fused,
                          report);

  status = AddShardMetrics(args.GetString("trace-manifest"),
                           static_cast<int>(*threads), registry, report);
  if (!status.ok()) return Fail(status);
  auto load_ms = [](const std::string& file_path, const std::string& format) {
    return MedianMillis(
        [&] { COLOSSAL_CHECK(LoadDatabaseFile(file_path, format).ok()); }, 5);
  };
  report.Add("data.load_ms_snapshot",
             load_ms(args.GetString("trace-snap"), "snapshot"));
  report.Add("data.load_ms_fimi",
             load_ms(args.GetString("trace-fimi"), "fimi"));
  std::fputs(report.Render().c_str(), stdout);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: perfbench_probe verify|layers [--flag value]...\n",
               stderr);
    return 1;
  }
  StatusOr<Args> args = Args::Parse(argc, argv, 2);
  if (!args.ok()) return Fail(args.status());
  const std::string command = argv[1];
  if (command == "verify") return RunVerify(*args);
  if (command == "layers") return RunLayers(*args);
  return Fail(Status::InvalidArgument("unknown command " + command));
}

}  // namespace
}  // namespace colossal

int main(int argc, char** argv) { return colossal::Main(argc, argv); }
