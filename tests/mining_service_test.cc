#include "service/mining_service.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pattern.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/result_io.h"
#include "service/admission.h"
#include "service/dataset_registry.h"
#include "service/dispatch.h"
#include "service/result_cache.h"
#include "shard/shard_planner.h"
#include "tests/metrics_scrape.h"

namespace colossal {
namespace {

// Shared on-disk datasets for the suite (written once).
class MiningServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string dir = ::testing::TempDir();
    fimi_path_ = new std::string(dir + "/service_test_a.fimi");
    other_path_ = new std::string(dir + "/service_test_b.fimi");
    snap_path_ = new std::string(dir + "/service_test_a.snap");
    db_ = new TransactionDatabase(MakeDiagPlus(16, 8).db);
    ASSERT_TRUE(WriteFimiFile(*db_, *fimi_path_).ok());
    ASSERT_TRUE(WriteSnapshotFile(*db_, *snap_path_).ok());
    ASSERT_TRUE(WriteFimiFile(MakeDiag(12), *other_path_).ok());
    ShardPlanOptions plan_options;
    plan_options.num_shards = 3;
    StatusOr<std::vector<ShardRange>> plan = PlanShards(*db_, plan_options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    StatusOr<ShardWriteResult> written =
        WriteShardedSnapshots(*db_, *plan, dir, "service_test_a3");
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    manifest_path_ = new std::string(written->manifest_path);
  }

  static MineRequest BasicRequest() {
    MineRequest request;
    request.dataset_path = *fimi_path_;
    request.options.min_support_count = 8;
    request.options.sigma = -1.0;
    request.options.initial_pool_max_size = 2;
    request.options.k = 20;
    return request;
  }

  static std::string* fimi_path_;
  static std::string* other_path_;
  static std::string* snap_path_;
  static std::string* manifest_path_;  // db_ cut into 3 shards
  static TransactionDatabase* db_;
};

std::string* MiningServiceTest::fimi_path_ = nullptr;
std::string* MiningServiceTest::other_path_ = nullptr;
std::string* MiningServiceTest::snap_path_ = nullptr;
std::string* MiningServiceTest::manifest_path_ = nullptr;
TransactionDatabase* MiningServiceTest::db_ = nullptr;

TEST_F(MiningServiceTest, SecondIdenticalRequestIsCachedAndBitIdentical) {
  MiningService service;
  const MineRequest request = BasicRequest();

  MiningResponse first = service.Mine(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.source, ResponseSource::kMined);
  ASSERT_NE(first.result, nullptr);

  MiningResponse second = service.Mine(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.source, ResponseSource::kCache);
  ASSERT_NE(second.result, nullptr);

  // The cached result is the same immutable object, and its rendered
  // pattern output is byte-identical to a fresh out-of-band mine.
  EXPECT_EQ(first.result.get(), second.result.get());
  StatusOr<ColossalMiningResult> fresh =
      MineColossal(*db_, request.options);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->patterns.size(), second.result->patterns.size());
  for (size_t i = 0; i < fresh->patterns.size(); ++i) {
    EXPECT_TRUE(fresh->patterns[i] == second.result->patterns[i]) << i;
  }
  EXPECT_EQ(PatternsToString(ToFrequentItemsets(fresh->patterns)),
            PatternsToString(ToFrequentItemsets(second.result->patterns)));

  EXPECT_EQ(Scrape(service.metrics(), "colossal_result_cache_hits_total"), 1);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_result_cache_misses_total"),
            1);
}

TEST_F(MiningServiceTest, ArenaPeakIsZeroUntilAMineAndMonotoneAfter) {
  MiningService service;
  EXPECT_EQ(Scrape(service.metrics(), "colossal_arena_peak_bytes"), 0);

  MiningResponse mined = service.Mine(BasicRequest());
  ASSERT_TRUE(mined.status.ok()) << mined.status.ToString();
  const int64_t after_mine =
      Scrape(service.metrics(), "colossal_arena_peak_bytes");
  EXPECT_GT(after_mine, 0) << "mine never touched the request arena";

  // A cache hit runs no mine; the peak is a lifetime max either way.
  MiningResponse cached = service.Mine(BasicRequest());
  ASSERT_TRUE(cached.status.ok());
  EXPECT_EQ(cached.source, ResponseSource::kCache);
  EXPECT_GE(Scrape(service.metrics(), "colossal_arena_peak_bytes"),
            after_mine);

  // Results never reference the per-request arena (it died with the
  // request): every cached support set is heap-backed.
  for (const Pattern& pattern : mined.result->patterns) {
    EXPECT_FALSE(pattern.support_set.arena_backed());
  }
}

// Every request shape the grammar offers, served over an unsharded
// snapshot and over a 3-shard exact manifest, answers byte for byte
// what MineColossal answers on the parent database. A fresh service per
// request keeps every answer a real mine, never a cache hit.
TEST_F(MiningServiceTest, ServiceAnswersExactlyWhatTheCoreAnswers) {
  const char* shapes[] = {
      "--min-support 8 --k 20 --pool-size 2",
      "--sigma 0.3 --k 20 --pool-size 2",
      "--min-support 8 --top-k 3 --pool-size 2",
      "--min-support 8 --k 20 --pool-size 2 "
      "--include 3,5,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30",
      "--min-support 8 --k 20 --pool-size 2 --exclude 0,1,2,16,17",
      "--min-support 8 --k 20 --pool-size 3 --min-len 3 --max-len 10",
  };
  const std::string datasets[] = {*snap_path_,
                                  *manifest_path_ + " --shards exact"};
  for (const std::string& dataset : datasets) {
    for (const char* shape : shapes) {
      const std::string line = "--in " + dataset + " " + shape;
      StatusOr<MineRequest> parsed = ParseRequestLine(line);
      ASSERT_TRUE(parsed.ok()) << line;
      MiningService service;
      const MiningResponse served = service.Mine(*parsed);
      ASSERT_TRUE(served.status.ok())
          << line << ": " << served.status.ToString();
      EXPECT_EQ(served.source, ResponseSource::kMined) << line;

      StatusOr<ColossalMiningResult> core = MineColossal(*db_, parsed->options);
      ASSERT_TRUE(core.ok()) << line << ": " << core.status().ToString();
      const std::string expected =
          PatternsToString(ToFrequentItemsets(core->patterns));
      EXPECT_FALSE(expected.empty()) << line;
      EXPECT_EQ(RenderPatternsPayload(served), expected) << line;
    }
  }
}

// A service mine records the pool miner's expanded nodes on its trace:
// the count MineApriori reports for the same pool. On the Figure-3 data
// at support 150, {c, e} and {e, f} are infrequent, so Apriori prunes
// {a, c, e} before counting it.
TEST_F(MiningServiceTest, TraceRecordsThePoolMinersNodeCount) {
  const std::string figure3_path =
      ::testing::TempDir() + "/service_test_figure3.fimi";
  ASSERT_TRUE(WriteFimiFile(MakePaperFigure3(), figure3_path).ok());
  MineRequest request = BasicRequest();
  request.dataset_path = figure3_path;
  request.options.min_support_count = 150;
  request.options.initial_pool_max_size = 3;

  MiningService service;
  RequestTrace trace;
  const MiningResponse mined = service.Mine(request, &trace);
  ASSERT_TRUE(mined.status.ok()) << mined.status.ToString();
  EXPECT_GT(trace.arena_peak_bytes.load(), 0);

  StatusOr<TransactionDatabase> figure3 = ReadFimiFile(figure3_path);
  ASSERT_TRUE(figure3.ok()) << figure3.status().ToString();
  MinerOptions pool;
  pool.min_support_count = 150;
  pool.max_pattern_size = 3;
  StatusOr<MiningResult> apriori = MineApriori(*figure3, pool);
  ASSERT_TRUE(apriori.ok()) << apriori.status().ToString();
  EXPECT_GT(apriori->stats.nodes_expanded, 0);
  EXPECT_EQ(trace.pool_nodes_expanded.load(), apriori->stats.nodes_expanded);
}

// Invalid options are refused while the request is canonicalized:
// before the cache, admission, any shard load or any mining. The trace
// holds no cache-lookup, pool-mine or fusion time, no pool work and no
// arena, and the response still names the dataset it was for.
TEST_F(MiningServiceTest, InvalidOptionsAreRefusedBeforeAnyMining) {
  MiningService service;
  const uint64_t fingerprint = FingerprintDatabase(*db_);
  for (const std::string* dataset : {fimi_path_, manifest_path_}) {
    MineRequest request = BasicRequest();
    request.dataset_path = *dataset;
    request.options.tau = 0.0;
    RequestTrace trace;
    const MiningResponse refused = service.Mine(request, &trace);
    EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument)
        << *dataset << ": " << refused.status.ToString();
    EXPECT_EQ(refused.status.message(), "tau must be in (0, 1]");
    EXPECT_EQ(refused.source, ResponseSource::kFailed);
    EXPECT_EQ(refused.dataset_fingerprint, fingerprint) << *dataset;
    EXPECT_EQ(trace.nanos(TracePhase::kCacheLookup), 0) << *dataset;
    EXPECT_EQ(trace.nanos(TracePhase::kPoolMine), 0) << *dataset;
    EXPECT_EQ(trace.nanos(TracePhase::kFusion), 0) << *dataset;
    EXPECT_EQ(trace.pool_nodes_expanded.load(), 0) << *dataset;
    EXPECT_EQ(trace.arena_peak_bytes.load(), 0) << *dataset;
  }
  EXPECT_EQ(Scrape(service.metrics(), "colossal_result_cache_misses_total"),
            0);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_arena_peak_bytes"), 0);
}

// Serves one request line through the dispatch path and returns the
// flight record it left.
FlightRecord DispatchAndRecord(MiningService& service,
                               const std::string& line) {
  const ServeOutcome outcome = DispatchServeLine(service, line);
  EXPECT_TRUE(outcome.response.status.ok())
      << line << ": " << outcome.response.status.ToString();
  FlightRecord record;
  EXPECT_TRUE(service.flight_recorder().Find(outcome.request_id, &record));
  return record;
}

// One sink for a request's arena peak, its trace: the request and shard
// arenas raise it, the flight record reads it, and the service-wide
// gauge is the max over the records.
TEST_F(MiningServiceTest, FlightRecordsCarryEachMinesArenaPeak) {
  MiningService service;
  const std::string unsharded =
      "--in " + *snap_path_ + " --min-support 8 --k 20 --pool-size 2";
  const FlightRecord mined = DispatchAndRecord(service, unsharded);
  // A different seed, so the exact manifest misses the unsharded entry.
  const FlightRecord sharded = DispatchAndRecord(
      service, "--in " + *manifest_path_ +
                   " --shards exact --min-support 8 --k 20 --pool-size 2 "
                   "--seed 5");
  const FlightRecord cached = DispatchAndRecord(service, unsharded);
  EXPECT_STREQ(mined.source, "mined");
  EXPECT_GT(mined.arena_peak_bytes, 0);
  EXPECT_STREQ(sharded.source, "mined");
  EXPECT_GT(sharded.arena_peak_bytes, 0);
  EXPECT_STREQ(cached.source, "cache");
  EXPECT_EQ(cached.arena_peak_bytes, 0);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_arena_peak_bytes"),
            std::max(mined.arena_peak_bytes, sharded.arena_peak_bytes));
}

// The record's shard_parallelism is the fan-out the sharded miner used,
// not the request's knob (whose default, 0, means auto).
TEST_F(MiningServiceTest, FlightRecordsCarryTheFanOutUsed) {
  MiningService service;
  const std::string sharded = "--in " + *manifest_path_ +
                              " --shards exact --min-support 8 --k 20 "
                              "--pool-size 2";
  const FlightRecord explicit_two =
      DispatchAndRecord(service, sharded + " --shard-parallelism 2");
  EXPECT_STREQ(explicit_two.source, "mined");
  EXPECT_EQ(explicit_two.shards, 3);
  EXPECT_EQ(explicit_two.shard_parallelism, 2);

  // Auto spends the request's thread budget: the service default of one
  // mining thread walks the shards in turn, --threads 2 runs two jobs.
  const FlightRecord automatic =
      DispatchAndRecord(service, sharded + " --seed 5");
  EXPECT_STREQ(automatic.source, "mined");
  EXPECT_EQ(automatic.shard_parallelism, 1);
  const FlightRecord two_threads =
      DispatchAndRecord(service, sharded + " --seed 6 --threads 2");
  EXPECT_STREQ(two_threads.source, "mined");
  EXPECT_EQ(two_threads.shard_parallelism, 2);

  const FlightRecord cached = DispatchAndRecord(service, sharded);
  EXPECT_STREQ(cached.source, "cache");
  EXPECT_EQ(cached.shard_parallelism, 0);

  const FlightRecord unsharded = DispatchAndRecord(
      service,
      "--in " + *snap_path_ + " --min-support 8 --k 20 --pool-size 2 --seed 9");
  EXPECT_STREQ(unsharded.source, "mined");
  EXPECT_EQ(unsharded.shard_parallelism, 0);
}

TEST_F(MiningServiceTest, ThreadCountDoesNotSplitTheCacheKey) {
  MiningService service;
  MineRequest one_thread = BasicRequest();
  one_thread.options.num_threads = 1;
  MineRequest many_threads = BasicRequest();
  many_threads.options.num_threads = 4;

  MiningResponse first = service.Mine(one_thread);
  MiningResponse second = service.Mine(many_threads);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.options_hash, second.options_hash);
  EXPECT_EQ(second.source, ResponseSource::kCache);
  EXPECT_EQ(first.result.get(), second.result.get());
}

TEST_F(MiningServiceTest, SigmaAndAbsoluteSupportShareACacheEntry) {
  MiningService service;
  MineRequest absolute = BasicRequest();  // min_support_count = 8
  MineRequest fractional = BasicRequest();
  fractional.options.sigma =
      8.0 / static_cast<double>(db_->num_transactions());

  MiningResponse first = service.Mine(absolute);
  MiningResponse second = service.Mine(fractional);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.options_hash, second.options_hash);
  EXPECT_EQ(second.source, ResponseSource::kCache);
}

TEST_F(MiningServiceTest, DifferentOptionsMissTheCache) {
  MiningService service;
  MineRequest request = BasicRequest();
  ASSERT_TRUE(service.Mine(request).status.ok());

  MineRequest different_tau = BasicRequest();
  different_tau.options.tau = 0.25;
  MiningResponse response = service.Mine(different_tau);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.source, ResponseSource::kMined);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_result_cache_entries"), 2);
}

TEST_F(MiningServiceTest, SamePathIsLoadedOnceAndSnapshotSharesEntries) {
  MiningService service;
  MineRequest request = BasicRequest();
  MiningResponse first = service.Mine(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.dataset_registry_hit);

  MineRequest different_options = BasicRequest();
  different_options.options.k = 10;
  MiningResponse second = service.Mine(different_options);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.dataset_registry_hit);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_dataset_loads_total"), 1);

  // The snapshot of the same logical dataset fingerprints identically,
  // so its results land on the same cache entries.
  MineRequest via_snapshot = BasicRequest();
  via_snapshot.dataset_path = *snap_path_;
  MiningResponse third = service.Mine(via_snapshot);
  ASSERT_TRUE(third.status.ok());
  EXPECT_EQ(third.dataset_fingerprint, first.dataset_fingerprint);
  EXPECT_EQ(third.source, ResponseSource::kCache);
}

TEST_F(MiningServiceTest, DisabledCacheMinesEveryTime) {
  MiningServiceOptions options;
  options.cache.max_entries = 0;
  MiningService service(options);
  const MineRequest request = BasicRequest();
  EXPECT_EQ(service.Mine(request).source, ResponseSource::kMined);
  EXPECT_EQ(service.Mine(request).source, ResponseSource::kMined);
}

TEST_F(MiningServiceTest, ConcurrentIdenticalRequestsMineOnce) {
  // Eight callers send the same request within a few microseconds of
  // each other, with a fresh seed (so a fresh cache key) every round.
  // However their cache probes, in-flight joins and the runner's
  // publication of its result interleave, each round mines once.
  constexpr int kCallers = 8;
  constexpr int kRounds = 5000;
  MiningService service;
  const MineRequest base = BasicRequest();
  std::barrier round_start(kCallers);
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(c));
      std::uniform_int_distribution<int> jitter_us(0, 60);
      MineRequest request = base;
      for (int round = 0; round < kRounds; ++round) {
        request.options.seed = static_cast<uint64_t>(round) + 1;
        round_start.arrive_and_wait();
        const auto arrival = std::chrono::steady_clock::now() +
                             std::chrono::microseconds(jitter_us(rng));
        while (std::chrono::steady_clock::now() < arrival) {
        }
        if (!service.Mine(request).status.ok()) ++failures;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_responses_mined_total"),
            kRounds);
}

TEST(DatasetRegistryTest, EvictsLeastRecentlyUsedByBudget) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/registry_evict_a.fimi";
  const std::string path_b = dir + "/registry_evict_b.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(12), path_a).ok());
  ASSERT_TRUE(WriteFimiFile(MakeDiag(14), path_b).ok());

  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.memory_budget_bytes = 1;  // everything over budget
  options.metrics = &metrics;
  DatasetRegistry registry(options);

  ASSERT_TRUE(registry.Get(path_a).ok());
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_resident_datasets"),
            1);  // newest kept
  ASSERT_TRUE(registry.Get(path_b).ok());
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_resident_datasets"), 1);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_evictions_total"), 1);

  // path_a was evicted → next Get reloads from disk.
  StatusOr<DatasetHandle> reloaded = registry.Get(path_a);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded->registry_hit);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_loads_total"), 3);
}

TEST(DatasetRegistryTest, RewrittenFileReloadsAutomatically) {
  const std::string path =
      ::testing::TempDir() + "/registry_rewrite.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), path).ok());
  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  ASSERT_TRUE(registry.Get(path).ok());
  ASSERT_TRUE(registry.Get(path)->registry_hit);

  // Rewrite in place (different size); the next Get notices on its own.
  ASSERT_TRUE(WriteFimiFile(MakeDiag(10), path).ok());
  StatusOr<DatasetHandle> reloaded = registry.Get(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded->registry_hit);
  EXPECT_EQ(reloaded->db->num_transactions(), 10);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_loads_total"), 2);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_stale_reloads_total"), 1);

  // The fresh entry is registered under the new signature.
  EXPECT_TRUE(registry.Get(path)->registry_hit);
}

TEST(DatasetRegistryTest, MtimeOnlyChangeIsDetected) {
  const std::string path =
      ::testing::TempDir() + "/registry_mtime.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), path).ok());
  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  ASSERT_TRUE(registry.Get(path).ok());

  // Same bytes, same size — only the mtime moves (as e.g. `touch` or an
  // in-place rewrite with identical content would).
  struct timespec times[2];
  times[0].tv_sec = 1000;
  times[0].tv_nsec = 0;
  times[1].tv_sec = 1000;
  times[1].tv_nsec = 0;
  ASSERT_EQ(utimensat(AT_FDCWD, path.c_str(), times, 0), 0);

  StatusOr<DatasetHandle> reloaded = registry.Get(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded->registry_hit);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_stale_reloads_total"), 1);
  // Content did not change, so the fingerprint (and thus any cached
  // results keyed on it) is preserved across the reload.
  EXPECT_EQ(reloaded->fingerprint, registry.Get(path)->fingerprint);
}

TEST(DatasetRegistryTest, DeletedFileFailsInsteadOfServingStaleData) {
  const std::string path =
      ::testing::TempDir() + "/registry_deleted.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), path).ok());
  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  ASSERT_TRUE(registry.Get(path).ok());
  ASSERT_EQ(::unlink(path.c_str()), 0);

  StatusOr<DatasetHandle> gone = registry.Get(path);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_resident_datasets"), 0);
}

TEST(DatasetRegistryTest, PinnedEntriesSurviveEviction) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/registry_pin_a.fimi";
  const std::string path_b = dir + "/registry_pin_b.fimi";
  const std::string path_c = dir + "/registry_pin_c.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(12), path_a).ok());
  ASSERT_TRUE(WriteFimiFile(MakeDiag(14), path_b).ok());
  ASSERT_TRUE(WriteFimiFile(MakeDiag(16), path_c).ok());

  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.memory_budget_bytes = 1;  // everything over budget
  options.metrics = &metrics;
  DatasetRegistry registry(options);

  StatusOr<PinnedDatasetHandle> pinned = registry.GetPinned(path_a, "auto", 0);
  ASSERT_TRUE(pinned.ok());
  EXPECT_GT(Scrape(metrics, "colossal_dataset_pinned_bytes"), 0);

  // A plain Get whose eviction pass would claim path_a under the LRU
  // rule must skip the pinned entry.
  ASSERT_TRUE(registry.Get(path_b).ok());
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_resident_datasets"), 2);
  StatusOr<DatasetHandle> still_resident = registry.Get(path_a);
  ASSERT_TRUE(still_resident.ok());
  EXPECT_TRUE(still_resident->registry_hit);

  // Released pin → path_a is evictable again: the next insert's
  // eviction pass clears both unpinned entries.
  pinned->pin.reset();
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_pinned_bytes"), 0);
  ASSERT_TRUE(registry.Get(path_c).ok());
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_resident_datasets"), 1);
  StatusOr<DatasetHandle> reloaded = registry.Get(path_a);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded->registry_hit);
}

TEST(DatasetRegistryTest, ConcurrentPinnedLoadsRespectTheBudget) {
  // Four threads cycle pinned loads of four datasets through a budget
  // sized for roughly two; reserve-before-load admission must keep the
  // resident high-water mark within the budget throughout, and every
  // load must succeed.
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  int64_t max_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string path =
        dir + "/registry_admission_" + std::to_string(i) + ".fimi";
    const TransactionDatabase db = MakeDiag(16 + 2 * i);
    ASSERT_TRUE(WriteFimiFile(db, path).ok());
    if (db.ApproxMemoryBytes() > max_bytes) {
      max_bytes = db.ApproxMemoryBytes();
    }
    paths.push_back(path);
  }
  // Estimates must cover the loaded size; give each load the worst case
  // and a budget that admits two such reservations.
  const int64_t estimate = max_bytes * 2;
  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.memory_budget_bytes = estimate * 2;
  options.metrics = &metrics;
  DatasetRegistry registry(options);

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&registry, &paths, &failures, estimate, t] {
      for (int round = 0; round < 8; ++round) {
        const std::string& path =
            paths[static_cast<size_t>((t + round) % 4)];
        StatusOr<PinnedDatasetHandle> pinned =
            registry.GetPinned(path, "auto", estimate);
        if (!pinned.ok()) {
          ++failures;
          return;
        }
        // Touch the database while pinned, then release.
        if (pinned->handle.db->num_transactions() < 16) ++failures;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_LE(Scrape(metrics, "colossal_dataset_peak_resident_bytes"),
            options.memory_budget_bytes);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_pinned_bytes"), 0);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_reserved_bytes"), 0);
}

TEST(DatasetRegistryTest, HostileEstimatesAreClampedNotFatal) {
  // A hostile manifest saturates its shard estimate to INT64_MAX; the
  // registry must clamp the reservation to the budget (no overflow in
  // admission or eviction arithmetic, no abort) and still serve the
  // load under the solo-admission rule.
  const std::string path =
      ::testing::TempDir() + "/registry_hostile_estimate.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), path).ok());
  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.memory_budget_bytes = 1;
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  StatusOr<PinnedDatasetHandle> pinned = registry.GetPinned(
      path, "auto", std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->handle.db->num_transactions(), 8);
  pinned->pin.reset();
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_reserved_bytes"), 0);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_pinned_bytes"), 0);
  // Negative estimates clamp to zero the same way.
  StatusOr<PinnedDatasetHandle> negative = registry.GetPinned(
      path, "auto", std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(negative.ok());
}

TEST(DatasetRegistryTest, StalePinReleaseDoesNotUnpinTheReloadedEntry) {
  // A pinned entry whose file is rewritten goes stale and is replaced;
  // the old pin must release as a no-op (generation mismatch), never
  // unpinning the new entry out from under its own pins.
  const std::string path =
      ::testing::TempDir() + "/registry_stale_pin.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), path).ok());
  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  StatusOr<PinnedDatasetHandle> old_pin = registry.GetPinned(path, "auto", 0);
  ASSERT_TRUE(old_pin.ok());

  ASSERT_TRUE(WriteFimiFile(MakeDiag(10), path).ok());
  StatusOr<PinnedDatasetHandle> new_pin = registry.GetPinned(path, "auto", 0);
  ASSERT_TRUE(new_pin.ok());
  EXPECT_EQ(new_pin->handle.db->num_transactions(), 10);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_stale_reloads_total"), 1);

  const int64_t pinned_before =
      Scrape(metrics, "colossal_dataset_pinned_bytes");
  EXPECT_GT(pinned_before, 0);
  old_pin->pin.reset();  // stale generation: must be a no-op
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_pinned_bytes"), pinned_before);
  new_pin->pin.reset();
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_pinned_bytes"), 0);
}

TEST(DatasetRegistryTest, SniffCacheServesWarmVerdictsByStat) {
  const std::string dir = ::testing::TempDir();
  const std::string data_path = dir + "/sniff_cache_data.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), data_path).ok());

  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  EXPECT_FALSE(registry.SniffIsManifest(data_path));
  EXPECT_EQ(Scrape(metrics, "colossal_sniff_cache_hits_total"),
            0);  // cold: real sniff
  EXPECT_FALSE(registry.SniffIsManifest(data_path));
  EXPECT_FALSE(registry.SniffIsManifest(data_path));
  EXPECT_EQ(Scrape(metrics, "colossal_sniff_cache_hits_total"), 2);

  // Rewriting the file as a manifest invalidates the cached verdict via
  // the signature, not via any explicit call.
  ShardManifest manifest;
  manifest.parent_fingerprint = 1;
  manifest.num_transactions = 8;
  manifest.num_items = 8;
  manifest.shards.push_back(ShardInfo{"x.snap", 0, 8, 2});
  ASSERT_TRUE(WriteShardManifestFile(manifest, data_path).ok());
  EXPECT_TRUE(registry.SniffIsManifest(data_path));
  EXPECT_EQ(Scrape(metrics, "colossal_sniff_cache_hits_total"),
            2);  // miss re-sniffed
  EXPECT_TRUE(registry.SniffIsManifest(data_path));
  EXPECT_EQ(Scrape(metrics, "colossal_sniff_cache_hits_total"), 3);
}

TEST(DatasetRegistryTest, SniffCacheIsBoundedAgainstHostilePathStreams) {
  // Request paths are untrusted; a stream of distinct (even
  // nonexistent) paths must not grow the sniff cache without bound.
  // The bound is internal, so this asserts the observable contract: a
  // flood of unique paths leaves the cache functional (a known path
  // still serves warm hits afterwards) and the flood itself cannot
  // produce hits.
  const std::string dir = ::testing::TempDir();
  const std::string real_path = dir + "/sniff_bound_real.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(8), real_path).ok());
  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  EXPECT_FALSE(registry.SniffIsManifest(real_path));
  for (int i = 0; i < 5000; ++i) {
    registry.SniffIsManifest(dir + "/no_such_" + std::to_string(i));
  }
  EXPECT_EQ(Scrape(metrics, "colossal_sniff_cache_hits_total"), 0);
  EXPECT_FALSE(registry.SniffIsManifest(real_path));  // re-warm (or warm)
  EXPECT_FALSE(registry.SniffIsManifest(real_path));
  EXPECT_GE(Scrape(metrics, "colossal_sniff_cache_hits_total"), 1);
}

TEST_F(MiningServiceTest, WarmAutoFormatRequestsHitTheSniffCache) {
  // The Prepare path sniffs every auto-format dataset; with the
  // registry-side cache, only the first request per (path, signature)
  // pays the open+read — warm requests (cache hits included) are a
  // single stat.
  MiningService service;
  ASSERT_TRUE(service.Mine(BasicRequest()).status.ok());
  EXPECT_EQ(Scrape(service.metrics(), "colossal_sniff_cache_hits_total"), 0);
  MiningResponse warm = service.Mine(BasicRequest());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(warm.source, ResponseSource::kCache);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_sniff_cache_hits_total"), 1);
  ASSERT_TRUE(service.Mine(BasicRequest()).status.ok());
  EXPECT_EQ(Scrape(service.metrics(), "colossal_sniff_cache_hits_total"), 2);
}

TEST(ResultCacheTest, LruEvictionAndCollisionSafety) {
  MetricsRegistry metrics;
  ResultCacheOptions options;
  options.max_entries = 2;
  options.metrics = &metrics;
  ResultCache cache(options);

  ColossalMinerOptions canonical_a;
  canonical_a.min_support_count = 2;
  ColossalMinerOptions canonical_b = canonical_a;
  canonical_b.k = 7;
  auto result = std::make_shared<const ColossalMiningResult>();

  const ResultCacheKey key_a{1, 10};
  const ResultCacheKey key_b{1, 11};
  const ResultCacheKey key_c{1, 12};
  cache.Put(key_a, canonical_a, result);
  cache.Put(key_b, canonical_a, result);
  EXPECT_NE(cache.Get(key_a, canonical_a), nullptr);  // refresh a
  cache.Put(key_c, canonical_a, result);              // evicts b
  EXPECT_NE(cache.Get(key_a, canonical_a), nullptr);
  EXPECT_EQ(cache.Get(key_b, canonical_a), nullptr);
  EXPECT_NE(cache.Get(key_c, canonical_a), nullptr);
  EXPECT_EQ(Scrape(metrics, "colossal_result_cache_evictions_total"), 1);

  // Same key, different canonical options (a simulated 64-bit hash
  // collision) must miss, not serve the wrong result.
  EXPECT_EQ(cache.Get(key_a, canonical_b), nullptr);
}

// --- Admission control -------------------------------------------------------

TEST(AdmissionGateTest, CountBoundRejectsAndReleases) {
  AdmissionGate gate(/*max_inflight=*/2, /*max_bytes=*/0);
  ASSERT_TRUE(gate.TryAdmit(100).ok());
  ASSERT_TRUE(gate.TryAdmit(100).ok());
  Status third = gate.TryAdmit(100);
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.message().find("2 mines in flight"), std::string::npos)
      << third.ToString();
  gate.Release(100);
  EXPECT_TRUE(gate.TryAdmit(100).ok());
  EXPECT_EQ(gate.inflight(), 2);
  gate.Release(100);
  gate.Release(100);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.admitted_bytes(), 0);
}

TEST(AdmissionGateTest, BytesBoundIsStrictEvenWhenIdle) {
  AdmissionGate gate(/*max_inflight=*/0, /*max_bytes=*/1000);
  // A request over the whole budget is rejected on an idle gate: the
  // operator's bound is a hard promise, not admit-at-least-one.
  EXPECT_EQ(gate.TryAdmit(1001).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(gate.TryAdmit(600).ok());
  EXPECT_EQ(gate.TryAdmit(600).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(gate.TryAdmit(400).ok());
  EXPECT_EQ(gate.admitted_bytes(), 1000);
  gate.Release(600);
  gate.Release(400);
}

TEST(AdmissionGateTest, ZeroMeansUnlimited) {
  AdmissionGate gate(0, 0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(gate.TryAdmit(int64_t{1} << 40).ok());
  }
  EXPECT_EQ(gate.inflight(), 100);
}

TEST_F(MiningServiceTest, TinyByteBudgetRejectsColdMinesDeterministically) {
  MiningServiceOptions options;
  options.max_inflight_mine_bytes = 1;  // below any dataset's estimate
  MiningService service(options);

  MiningResponse rejected = service.Mine(BasicRequest());
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted)
      << rejected.status.ToString();
  EXPECT_NE(rejected.status.message().find("admission"), std::string::npos);
  // Deterministic: a retry is rejected identically, and each rejection
  // counts in the exposed metric.
  EXPECT_EQ(service.Mine(BasicRequest()).status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_admission_rejected_total"),
            2);
}

TEST_F(MiningServiceTest, CacheHitsBypassTheAdmissionGate) {
  // Gate admits exactly one mine's bytes; once the result is cached,
  // repeats are served without touching the gate.
  MiningServiceOptions options;
  options.max_inflight_mines = 1;
  MiningService service(options);
  ASSERT_TRUE(service.Mine(BasicRequest()).status.ok());
  MiningResponse warm = service.Mine(BasicRequest());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(warm.source, ResponseSource::kCache);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_admission_rejected_total"),
            0);
}

// --- Background eviction (the reaper) ---------------------------------------

TEST(DatasetRegistryTest, EvictionsAreReapedOffTheGetPath) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/registry_reap_a.fimi";
  const std::string path_b = dir + "/registry_reap_b.fimi";
  ASSERT_TRUE(WriteFimiFile(MakeDiag(12), path_a).ok());
  ASSERT_TRUE(WriteFimiFile(MakeDiag(14), path_b).ok());

  MetricsRegistry metrics;
  DatasetRegistryOptions options;
  options.memory_budget_bytes = 1;  // every load evicts the previous
  options.metrics = &metrics;
  DatasetRegistry registry(options);
  ASSERT_TRUE(registry.Get(path_a).ok());
  ASSERT_TRUE(registry.Get(path_b).ok());  // evicts a → reap queue
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_evictions_total"), 1);

  // The reaper thread frees the evicted dataset shortly; accounting
  // (resident bytes, eviction counters) already reflected it at Get
  // time — only destruction is deferred.
  for (int i = 0;
       i < 200 && Scrape(metrics, "colossal_dataset_reaps_total") < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(Scrape(metrics, "colossal_dataset_reaps_total"), 1);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_reap_pending"), 0);
}

}  // namespace
}  // namespace colossal
