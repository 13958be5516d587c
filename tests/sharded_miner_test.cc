#include "shard/sharded_miner.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "core/pattern.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/result_io.h"
#include "service/dispatch.h"
#include "service/mining_service.h"
#include "shard/shard_planner.h"
#include "tests/metrics_scrape.h"

namespace colossal {
namespace {

// A FIMI-style dataset with a planted colossal block plus noise rows,
// written once as the unsharded parent and as {1, 2, 7}-shard manifests.
class ShardedMinerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new TransactionDatabase(MakeDiagPlus(16, 8).db);
    dir_ = new std::string(::testing::TempDir());
    parent_path_ = new std::string(*dir_ + "/sharded_parent.fimi");
    ASSERT_TRUE(WriteFimiFile(*db_, *parent_path_).ok());
    manifest_paths_ = new std::vector<std::string>();
    for (int shards : {1, 2, 7}) {
      ShardPlanOptions options;
      options.num_shards = shards;
      StatusOr<std::vector<ShardRange>> plan = PlanShards(*db_, options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      StatusOr<ShardWriteResult> written = WriteShardedSnapshots(
          *db_, *plan, *dir_, "sharded_" + std::to_string(shards));
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      manifest_paths_->push_back(written->manifest_path);
    }
  }

  static ColossalMinerOptions BaseOptions() {
    ColossalMinerOptions options;
    options.sigma = -1.0;
    options.min_support_count = 8;
    options.initial_pool_max_size = 2;
    options.k = 20;
    return options;
  }

  // A loader reading straight from disk (tests of the miner itself; the
  // service tests below route through a registry instead).
  static ShardLoader DiskLoader() {
    return [](const std::string& path,
              int64_t /*estimated_bytes*/) -> StatusOr<LoadedShard> {
      StatusOr<TransactionDatabase> db = ReadSnapshotFile(path);
      if (!db.ok()) return db.status();
      LoadedShard shard;
      shard.fingerprint = FingerprintDatabase(*db);
      shard.db = std::make_shared<const TransactionDatabase>(*std::move(db));
      return shard;
    };
  }

  static MineRequest ManifestRequest(size_t manifest_index) {
    MineRequest request;
    request.dataset_path = (*manifest_paths_)[manifest_index];
    request.options = BaseOptions();
    return request;
  }

  static TransactionDatabase* db_;
  static std::string* dir_;
  static std::string* parent_path_;
  static std::vector<std::string>* manifest_paths_;  // 1, 2, 7 shards
};

TransactionDatabase* ShardedMinerTest::db_ = nullptr;
std::string* ShardedMinerTest::dir_ = nullptr;
std::string* ShardedMinerTest::parent_path_ = nullptr;
std::vector<std::string>* ShardedMinerTest::manifest_paths_ = nullptr;

std::string Render(const ColossalMiningResult& result) {
  return PatternsToString(ToFrequentItemsets(result.patterns));
}

TEST_F(ShardedMinerTest, ExactIsByteIdenticalAcrossShardAndThreadCounts) {
  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_text = Render(*reference);
  ASSERT_FALSE(reference_text.empty());

  for (const std::string& manifest_path : *manifest_paths_) {
    StatusOr<ShardManifest> manifest = ReadShardManifestFile(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    for (int threads : {1, 8}) {
      ColossalMinerOptions options = BaseOptions();
      options.num_threads = threads;
      ShardedMiner miner(*manifest, DiskLoader());
      StatusOr<ColossalMiningResult> sharded =
          miner.Mine(options, ShardMergeMode::kExact);
      ASSERT_TRUE(sharded.ok())
          << manifest_path << ": " << sharded.status().ToString();
      EXPECT_EQ(Render(*sharded), reference_text)
          << manifest_path << " threads=" << threads;
      // Not just the rendered bytes: the full pipeline state matches.
      EXPECT_EQ(sharded->initial_pool_size, reference->initial_pool_size);
      EXPECT_EQ(sharded->iterations, reference->iterations);
      EXPECT_EQ(sharded->converged, reference->converged);
      ASSERT_EQ(sharded->patterns.size(), reference->patterns.size());
      for (size_t i = 0; i < reference->patterns.size(); ++i) {
        EXPECT_TRUE(sharded->patterns[i] == reference->patterns[i]) << i;
      }
    }
  }
}

// With k at least the pool size, fusion converges before its first
// iteration and returns the initial pool itself, support sets included.
// That exposes the pool the sorted merge and re-count recover, so exact
// mode is checked against the unsharded pool pattern by pattern, not
// only through the fused answer. Besides the suite's DiagPlus manifests,
// a random database split 3 ways has uneven local supports: some
// candidates are first mined by a higher shard while a lower shard holds
// rows of them below its threshold.
TEST_F(ShardedMinerTest, ExactRecoversTheUnshardedPoolPatternByPattern) {
  RandomDatabaseOptions random_options;
  random_options.num_transactions = 90;
  random_options.num_items = 12;
  random_options.density = 0.35;
  random_options.seed = 4;
  const TransactionDatabase random_db = MakeRandomDatabase(random_options);
  ShardPlanOptions plan_options;
  plan_options.num_shards = 3;
  StatusOr<std::vector<ShardRange>> plan = PlanShards(random_db, plan_options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  StatusOr<ShardWriteResult> written =
      WriteShardedSnapshots(random_db, *plan, *dir_, "sharded_random_3");
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  struct Fixture {
    const TransactionDatabase* db;
    std::vector<std::string> manifest_paths;
    int64_t min_support;
  };
  const Fixture fixtures[] = {{db_, *manifest_paths_, 8},
                              {&random_db, {written->manifest_path}, 9}};

  // (candidate, shard) pairs the shard did not mine, judged from the
  // shards' own miner results: re-counted on the loaded shard when the
  // shard lies above, resp. below, the first shard that mined the
  // candidate, and skipped when the candidate uses an item outside the
  // shard's domain.
  int64_t recounted_above = 0;
  int64_t recounted_below = 0;
  int64_t out_of_domain = 0;
  for (const Fixture& fixture : fixtures) {
    ColossalMinerOptions options = BaseOptions();
    options.min_support_count = fixture.min_support;
    options.k = 1 << 20;
    StatusOr<ColossalMiningResult> reference =
        MineColossal(*fixture.db, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference->iterations, 0);
    ASSERT_EQ(static_cast<int64_t>(reference->patterns.size()),
              reference->initial_pool_size);

    for (const std::string& manifest_path : fixture.manifest_paths) {
      StatusOr<ShardManifest> manifest = ReadShardManifestFile(manifest_path);
      ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
      ShardedMiner miner(*manifest, DiskLoader());
      for (int fan_out : {1, 4}) {
        options.shard_parallelism = fan_out;
        StatusOr<ColossalMiningResult> sharded =
            miner.Mine(options, ShardMergeMode::kExact);
        ASSERT_TRUE(sharded.ok())
            << manifest_path << ": " << sharded.status().ToString();
        EXPECT_EQ(sharded->iterations, 0);
        ASSERT_EQ(sharded->patterns.size(), reference->patterns.size())
            << manifest_path << " fan-out=" << fan_out;
        for (size_t i = 0; i < reference->patterns.size(); ++i) {
          EXPECT_TRUE(sharded->patterns[i] == reference->patterns[i])
              << manifest_path << " fan-out=" << fan_out << " pattern "
              << i << " " << reference->patterns[i].items.ToString();
        }
      }

      std::set<Itemset> candidates;
      std::vector<std::set<Itemset>> mined_by_shard;
      std::vector<ItemId> shard_domains;
      for (const ShardInfo& info : manifest->shards) {
        StatusOr<TransactionDatabase> shard = ReadSnapshotFile(info.path);
        ASSERT_TRUE(shard.ok()) << shard.status().ToString();
        MinerOptions local;
        local.min_support_count = ShardLocalMinSupport(
            options.min_support_count, info.rows(),
            manifest->num_transactions);
        local.max_pattern_size = options.initial_pool_max_size;
        StatusOr<std::vector<Pattern>> pool = MinePoolPatterns(*shard, local);
        ASSERT_TRUE(pool.ok()) << pool.status().ToString();
        mined_by_shard.emplace_back();
        for (const Pattern& pattern : *pool) {
          candidates.insert(pattern.items);
          mined_by_shard.back().insert(pattern.items);
        }
        shard_domains.push_back(shard->num_items());
      }
      for (const Itemset& candidate : candidates) {
        size_t first_miner = 0;
        while (mined_by_shard[first_miner].count(candidate) == 0) {
          ++first_miner;
        }
        for (size_t s = 0; s < mined_by_shard.size(); ++s) {
          if (mined_by_shard[s].count(candidate) != 0) continue;
          if (candidate[candidate.size() - 1] >= shard_domains[s]) {
            ++out_of_domain;
          } else if (s > first_miner) {
            ++recounted_above;
          } else {
            ++recounted_below;
          }
        }
      }
    }
  }
  EXPECT_GT(recounted_above, 0);
  EXPECT_GT(recounted_below, 0);
  EXPECT_GT(out_of_domain, 0);
}

TEST_F(ShardedMinerTest, ArenaBackedMineIsByteIdenticalAndRecordsPeaks) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  ShardedMiner plain(*manifest, DiskLoader());
  StatusOr<ColossalMiningResult> reference =
      plain.Mine(BaseOptions(), ShardMergeMode::kExact);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (ShardMergeMode mode : {ShardMergeMode::kExact, ShardMergeMode::kFuse}) {
    RequestTrace trace;
    const std::atomic<int64_t>& peak = trace.arena_peak_bytes;
    ShardResidencyOptions residency;
    residency.trace = &trace;
    ShardedMiner miner(*manifest, DiskLoader(), residency);

    StatusOr<ColossalMiningResult> heap = miner.Mine(BaseOptions(), mode);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    // Per-shard mining/re-count arenas report even without a request
    // arena.
    EXPECT_GT(peak.load(), 0) << ShardMergeModeName(mode);

    Arena request_arena;
    StatusOr<ColossalMiningResult> arena_backed =
        miner.Mine(BaseOptions(), mode, &request_arena);
    ASSERT_TRUE(arena_backed.ok()) << arena_backed.status().ToString();
    EXPECT_GT(request_arena.high_water_bytes(), 0);

    EXPECT_EQ(Render(*arena_backed), Render(*heap)) << ShardMergeModeName(mode);
    ASSERT_EQ(arena_backed->patterns.size(), heap->patterns.size());
    for (size_t i = 0; i < heap->patterns.size(); ++i) {
      EXPECT_TRUE(arena_backed->patterns[i] == heap->patterns[i]) << i;
      EXPECT_FALSE(arena_backed->patterns[i].support_set.arena_backed()) << i;
    }
    if (mode == ShardMergeMode::kExact) {
      EXPECT_EQ(Render(*heap), Render(*reference));
    }
  }
}

TEST_F(ShardedMinerTest, FusePhasesFitInsideTheCallAtFanOutOne) {
  // At fan-out 1 the miner's three phases are back-to-back spans inside
  // the call, so their sum cannot exceed its wall time. Handing the
  // trace to the per-shard MineColossal calls as well would count their
  // pool mining and fusion a second time, inside the pool_mine span.
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  RequestTrace trace;
  ShardResidencyOptions residency;
  residency.trace = &trace;
  ShardedMiner miner(*manifest, DiskLoader(), residency);
  ColossalMinerOptions options = BaseOptions();
  options.shard_parallelism = 1;

  const auto start = std::chrono::steady_clock::now();
  StatusOr<ColossalMiningResult> mined =
      miner.Mine(options, ShardMergeMode::kFuse);
  const int64_t wall_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_EQ(trace.shard_parallelism.load(), 1);
  const int64_t pool = trace.nanos(TracePhase::kPoolMine);
  const int64_t stitch = trace.nanos(TracePhase::kStitch);
  const int64_t fusion = trace.nanos(TracePhase::kFusion);
  EXPECT_GT(pool, 0);
  EXPECT_GT(stitch, 0);
  EXPECT_GT(fusion, 0);
  EXPECT_LE(pool + stitch + fusion, wall_nanos);
}

TEST_F(ShardedMinerTest, FanOutMatrixIsByteIdenticalToUnsharded) {
  // The acceptance matrix: shard counts {1, 2, 7} × shard-parallelism
  // {1, 2, 4} × threads {1, 8}, every cell byte-identical to unsharded
  // MineColossal — parallelism 1 doubles as the sequential-walk
  // reference, so the matrix also proves fan-out == sequential sharded.
  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_text = Render(*reference);
  ASSERT_FALSE(reference_text.empty());

  for (const std::string& manifest_path : *manifest_paths_) {
    StatusOr<ShardManifest> manifest = ReadShardManifestFile(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ShardedMiner miner(*manifest, DiskLoader());
    for (int parallelism : {1, 2, 4}) {
      for (int threads : {1, 8}) {
        ColossalMinerOptions options = BaseOptions();
        options.shard_parallelism = parallelism;
        options.num_threads = threads;
        StatusOr<ColossalMiningResult> sharded =
            miner.Mine(options, ShardMergeMode::kExact);
        ASSERT_TRUE(sharded.ok())
            << manifest_path << ": " << sharded.status().ToString();
        EXPECT_EQ(Render(*sharded), reference_text)
            << manifest_path << " parallelism=" << parallelism
            << " threads=" << threads;
        EXPECT_EQ(sharded->initial_pool_size, reference->initial_pool_size);
        EXPECT_EQ(sharded->iterations, reference->iterations);
        EXPECT_EQ(sharded->converged, reference->converged);
        ASSERT_EQ(sharded->patterns.size(), reference->patterns.size());
        for (size_t i = 0; i < reference->patterns.size(); ++i) {
          EXPECT_TRUE(sharded->patterns[i] == reference->patterns[i])
              << manifest_path << " parallelism=" << parallelism
              << " threads=" << threads << " pattern " << i;
        }
      }
    }
  }
}

TEST_F(ShardedMinerTest, FuseModeIsInvariantAcrossFanOutAndThreads) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok());
  ShardedMiner miner(*manifest, DiskLoader());
  ColossalMinerOptions sequential = BaseOptions();
  sequential.shard_parallelism = 1;
  StatusOr<ColossalMiningResult> reference =
      miner.Mine(sequential, ShardMergeMode::kFuse);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_text = Render(*reference);

  for (int parallelism : {2, 4}) {
    for (int threads : {1, 8}) {
      ColossalMinerOptions options = BaseOptions();
      options.shard_parallelism = parallelism;
      options.num_threads = threads;
      StatusOr<ColossalMiningResult> fused =
          miner.Mine(options, ShardMergeMode::kFuse);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      EXPECT_EQ(Render(*fused), reference_text)
          << "parallelism=" << parallelism << " threads=" << threads;
    }
  }
}

TEST_F(ShardedMinerTest, FanOutFailuresReportTheLowestFailingShard) {
  // Completion order must not leak into which Status the merge returns:
  // corrupt two shards, and the lowest-index one is reported at any
  // fan-out. At fan-out 1 the loop runs in manifest order and stops
  // loading at the failure, so no shard above it is ever loaded.
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok());
  manifest->shards[2].fingerprint ^= 1;
  manifest->shards[5].fingerprint ^= 1;
  for (int parallelism : {1, 4}) {
    // Only the fan-out-1 loader records paths: it is called from one
    // thread.
    auto loaded = std::make_shared<std::set<std::string>>();
    const ShardLoader disk = DiskLoader();
    ShardLoader tracking = [loaded, disk](const std::string& path,
                                          int64_t estimated_bytes) {
      loaded->insert(path);
      return disk(path, estimated_bytes);
    };
    ShardedMiner miner(*manifest, parallelism == 1 ? tracking : disk);
    ColossalMinerOptions options = BaseOptions();
    options.shard_parallelism = parallelism;
    StatusOr<ColossalMiningResult> result =
        miner.Mine(options, ShardMergeMode::kExact);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().message().find("shard 2"), std::string::npos)
        << "parallelism=" << parallelism << ": "
        << result.status().ToString();
    if (parallelism == 1) {
      for (size_t i = 3; i < manifest->shards.size(); ++i) {
        EXPECT_EQ(loaded->count(manifest->shards[i].path), 0u)
            << "shard " << i << " loaded after shard 2 failed";
      }
    }
  }
}

TEST_F(ShardedMinerTest, AutoFanOutWithoutABudgetStaysSequential) {
  // A miner constructed with no residency budget has nothing to bound
  // concurrent residency with, so auto parallelism must keep the
  // original at-most-one-shard-resident walk; wide fan-out is opt-in
  // (explicit shard_parallelism, or a budget for the governor). The
  // loader tracks how many shards are alive at once via each
  // LoadedShard's pin.
  auto concurrent = std::make_shared<std::atomic<int>>(0);
  auto peak = std::make_shared<std::atomic<int>>(0);
  ShardLoader tracking = [concurrent, peak](
                             const std::string& path,
                             int64_t /*estimated_bytes*/)
      -> StatusOr<LoadedShard> {
    StatusOr<TransactionDatabase> db = ReadSnapshotFile(path);
    if (!db.ok()) return db.status();
    const int now = concurrent->fetch_add(1) + 1;
    int seen = peak->load();
    while (now > seen && !peak->compare_exchange_weak(seen, now)) {
    }
    LoadedShard shard;
    shard.fingerprint = FingerprintDatabase(*db);
    shard.db = std::make_shared<const TransactionDatabase>(*std::move(db));
    shard.pin = std::shared_ptr<void>(
        new int(0), [concurrent](void* token) {
          delete static_cast<int*>(token);
          concurrent->fetch_sub(1);
        });
    return shard;
  };

  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok());
  ShardedMiner miner(*manifest, tracking);  // no residency budget
  ColossalMinerOptions options = BaseOptions();
  options.shard_parallelism = 0;  // auto
  StatusOr<ColossalMiningResult> mined =
      miner.Mine(options, ShardMergeMode::kExact);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_EQ(peak->load(), 1);
}

TEST(ShardLocalMinSupportTest, MatchesPlainArithmeticInRange) {
  EXPECT_EQ(ShardLocalMinSupport(8, 18, 36), 4);
  EXPECT_EQ(ShardLocalMinSupport(8, 5, 36), 1);   // clamped floor
  EXPECT_EQ(ShardLocalMinSupport(1, 1, 100), 1);
  EXPECT_EQ(ShardLocalMinSupport(7, 10, 36), 1);  // floor, not ceiling
}

TEST(ShardLocalMinSupportTest, NearInt64MaxProductsDoNotOverflow) {
  // min_support × shard_rows = 1.6e19 overflows int64 (the pre-fix
  // multiply wrapped negative and clamped the threshold to 1 — an
  // unsound per-shard threshold drop); the 128-bit intermediate keeps
  // the exact quotient.
  const int64_t four_billion = int64_t{4000000000};
  EXPECT_EQ(ShardLocalMinSupport(four_billion, four_billion,
                                 int64_t{8000000000}),
            int64_t{2000000000});
  // Degenerate extreme: one shard holding everything at a support of
  // |D| — the product is INT64_MAX², far beyond any 64-bit intermediate.
  const int64_t max64 = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(ShardLocalMinSupport(max64, max64, max64), max64);
  EXPECT_EQ(ShardLocalMinSupport(max64 / 2, max64, max64), max64 / 2);
}

TEST(MaxConcurrentResidentShardsTest, AdmitsTheLargestFittingPrefix) {
  // No budget: everything may be resident.
  EXPECT_EQ(MaxConcurrentResidentShards({100, 100, 100}, 0), 3);
  EXPECT_EQ(MaxConcurrentResidentShards({100, 100, 100}, -5), 3);
  // Budget fits exactly two of the largest.
  EXPECT_EQ(MaxConcurrentResidentShards({100, 90, 80, 70}, 200), 2);
  // Sums against the *largest* estimates: {100, 90} busts 150 even
  // though {80, 70} would fit.
  EXPECT_EQ(MaxConcurrentResidentShards({70, 100, 80, 90}, 150), 1);
  // A single over-budget shard still mines.
  EXPECT_EQ(MaxConcurrentResidentShards({500}, 100), 1);
  EXPECT_EQ(MaxConcurrentResidentShards({500, 400}, 100), 1);
  // Everything fits.
  EXPECT_EQ(MaxConcurrentResidentShards({10, 10, 10}, 1000), 3);
  EXPECT_EQ(MaxConcurrentResidentShards({}, 100), 1);
}

TEST(EstimateShardResidentBytesTest, HostileManifestCountsSaturate) {
  // Row/item counts come straight from a caller-supplied manifest (any
  // int64 passes manifest validation); the estimate must saturate to a
  // huge-but-valid value — which admission treats like any over-budget
  // dataset — never wrap negative (the pre-fix int64 arithmetic did,
  // and a negative estimate would have tripped a process-aborting CHECK
  // in DatasetRegistry::GetPinned).
  const int64_t max64 = std::numeric_limits<int64_t>::max();
  ShardInfo hostile;
  hostile.path = "/no/such/shard.snap";  // stat fails: worst-case bound
  hostile.row_begin = 0;
  hostile.row_end = max64;
  EXPECT_EQ(EstimateShardResidentBytes(hostile, max64), max64);
  // And the governor copes with saturated estimates (no re-overflow in
  // its prefix sums).
  EXPECT_EQ(MaxConcurrentResidentShards({max64, max64}, max64), 1);
}

TEST_F(ShardedMinerTest, EstimateOverestimatesActualResidentBytes) {
  // The governor and GetPinned reservations rely on the estimate being
  // an over-estimate of ApproxMemoryBytes — the safe direction for
  // admission control: never under-reserve.
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok());
  for (const ShardInfo& info : manifest->shards) {
    StatusOr<TransactionDatabase> shard = ReadSnapshotFile(info.path);
    ASSERT_TRUE(shard.ok());
    EXPECT_GE(EstimateShardResidentBytes(info, manifest->num_items),
              shard->ApproxMemoryBytes())
        << info.path;
  }

  // The over-estimate must hold for text shards too (nothing forces a
  // hand-authored manifest to reference snapshots, and the FIMI text is
  // far smaller than the loaded database with its vertical index).
  ShardInfo text_shard;
  text_shard.path = *parent_path_;  // the parent written as FIMI
  text_shard.row_begin = 0;
  text_shard.row_end = db_->num_transactions();
  EXPECT_GE(EstimateShardResidentBytes(text_shard, db_->num_items()),
            db_->ApproxMemoryBytes());
}

TEST_F(ShardedMinerTest, ExactSigmaResolvesAgainstTheParentRowCount) {
  // sigma 8/36 must behave exactly like --min-support 8, resolved from
  // the manifest's total transaction count, not any shard's.
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);
  ASSERT_TRUE(manifest.ok());
  ColossalMinerOptions fractional = BaseOptions();
  fractional.sigma =
      8.0 / static_cast<double>(db_->num_transactions());
  ShardedMiner miner(*manifest, DiskLoader());
  StatusOr<ColossalMiningResult> via_sigma =
      miner.Mine(fractional, ShardMergeMode::kExact);
  ASSERT_TRUE(via_sigma.ok()) << via_sigma.status().ToString();
  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Render(*via_sigma), Render(*reference));
}

TEST_F(ShardedMinerTest, FuseModeYieldsGloballyFrequentPatterns) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok());
  ShardedMiner miner(*manifest, DiskLoader());
  StatusOr<ColossalMiningResult> fused =
      miner.Mine(BaseOptions(), ShardMergeMode::kFuse);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_FALSE(fused->patterns.empty());
  for (const Pattern& pattern : fused->patterns) {
    // Supports are recovered against the parent, never a shard alone.
    EXPECT_EQ(pattern.support, db_->Support(pattern.items));
    EXPECT_GE(pattern.support, 8);
  }

  // Deterministic for any thread count, like every engine in the
  // library.
  ColossalMinerOptions threaded = BaseOptions();
  threaded.num_threads = 8;
  StatusOr<ColossalMiningResult> fused_threaded =
      miner.Mine(threaded, ShardMergeMode::kFuse);
  ASSERT_TRUE(fused_threaded.ok());
  EXPECT_EQ(Render(*fused_threaded), Render(*fused));
}

// Options are validated before any shard loads: a negative thread count
// is a Status, not the abort ResolveNumThreads raises on it.
TEST_F(ShardedMinerTest, InvalidOptionsFailBeforeAnyShardLoads) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[1]);
  ASSERT_TRUE(manifest.ok());
  auto loads = std::make_shared<std::atomic<int>>(0);
  const ShardLoader disk = DiskLoader();
  ShardLoader counting = [loads, disk](const std::string& path,
                                       int64_t estimated_bytes) {
    loads->fetch_add(1);
    return disk(path, estimated_bytes);
  };
  ShardResidencyOptions budgeted;
  budgeted.budget_bytes = int64_t{1} << 30;
  for (const ShardResidencyOptions& residency :
       {ShardResidencyOptions(), budgeted}) {
    ShardedMiner miner(*manifest, counting, residency);
    ColossalMinerOptions negative_threads = BaseOptions();
    negative_threads.num_threads = -1;
    ColossalMinerOptions negative_fan_out = BaseOptions();
    negative_fan_out.shard_parallelism = -1;
    ColossalMinerOptions zero_tau = BaseOptions();
    zero_tau.tau = 0.0;
    for (const ColossalMinerOptions& options :
         {negative_threads, negative_fan_out, zero_tau}) {
      for (ShardMergeMode mode : {ShardMergeMode::kExact,
                                  ShardMergeMode::kFuse}) {
        StatusOr<ColossalMiningResult> result = miner.Mine(options, mode);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << result.status().ToString();
      }
    }
  }
  EXPECT_EQ(loads->load(), 0);
}

TEST_F(ShardedMinerTest, ShardFingerprintMismatchFailsWithStatus) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[1]);
  ASSERT_TRUE(manifest.ok());
  manifest->shards[1].fingerprint ^= 1;  // a lying manifest entry
  ShardedMiner miner(*manifest, DiskLoader());
  StatusOr<ColossalMiningResult> result =
      miner.Mine(BaseOptions(), ShardMergeMode::kExact);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ShardedMinerTest, MissingShardFileFailsWithStatus) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[1]);
  ASSERT_TRUE(manifest.ok());
  manifest->shards[0].path = *dir_ + "/no_such_shard.snap";
  ShardedMiner miner(*manifest, DiskLoader());
  StatusOr<ColossalMiningResult> result =
      miner.Mine(BaseOptions(), ShardMergeMode::kExact);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ShardedMinerTest, RowCountMismatchFailsWithStatus) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[1]);  // 2 shards, 18 rows each
  ASSERT_TRUE(manifest.ok());
  // Point both entries at shard 0's file: shard 1's row range no longer
  // matches the file (and neither does its fingerprint; the row check
  // fires on whichever the miner verifies first — both are Statuses).
  manifest->shards[1].path = manifest->shards[0].path;
  ShardedMiner miner(*manifest, DiskLoader());
  StatusOr<ColossalMiningResult> result =
      miner.Mine(BaseOptions(), ShardMergeMode::kExact);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// --- Service-layer integration --------------------------------------------

TEST_F(ShardedMinerTest, ServiceServesManifestsAndSharesTheExactCacheEntry) {
  MiningService service;
  MineRequest unsharded;
  unsharded.dataset_path = *parent_path_;
  unsharded.options = BaseOptions();

  MiningResponse first = service.Mine(unsharded);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.source, ResponseSource::kMined);
  EXPECT_EQ(first.shards, 0);

  // The exact sharded request lands on the unsharded request's cache
  // entry: same parent fingerprint, same canonical options.
  MiningResponse second = service.Mine(ManifestRequest(1));
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(second.source, ResponseSource::kCache);
  EXPECT_EQ(second.dataset_fingerprint, first.dataset_fingerprint);
  EXPECT_EQ(second.result.get(), first.result.get());

  // And the reverse order in a fresh service: sharded mines, unsharded
  // hits.
  MiningService fresh;
  MiningResponse mined = fresh.Mine(ManifestRequest(1));
  ASSERT_TRUE(mined.status.ok()) << mined.status.ToString();
  EXPECT_EQ(mined.source, ResponseSource::kMined);
  EXPECT_EQ(mined.shards, 2);
  MiningResponse hit = fresh.Mine(unsharded);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.source, ResponseSource::kCache);
  EXPECT_EQ(hit.result.get(), mined.result.get());
}

TEST_F(ShardedMinerTest, FuseModeCachesUnderItsOwnKey) {
  MiningService service;
  MineRequest exact = ManifestRequest(1);
  MineRequest fuse = ManifestRequest(1);
  fuse.shard_mode = ShardMergeMode::kFuse;
  fuse.shards_requested = true;

  ASSERT_TRUE(service.Mine(exact).status.ok());
  MiningResponse fused = service.Mine(fuse);
  ASSERT_TRUE(fused.status.ok()) << fused.status.ToString();
  EXPECT_EQ(fused.source, ResponseSource::kMined);  // not the exact entry
  MiningResponse fused_again = service.Mine(fuse);
  ASSERT_TRUE(fused_again.status.ok());
  EXPECT_EQ(fused_again.source, ResponseSource::kCache);
  EXPECT_EQ(fused_again.result.get(), fused.result.get());
}

TEST_F(ShardedMinerTest, ShardsFlagOnANonManifestDatasetIsARequestError) {
  MiningService service;
  MineRequest request;
  request.dataset_path = *parent_path_;
  request.options = BaseOptions();
  request.shards_requested = true;
  MiningResponse response = service.Mine(request);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardedMinerTest, ServiceResultsMatchUnshardedThroughTheCacheToo) {
  // The acceptance-criterion loop: shard counts {1, 2, 7} × threads
  // {1, 8}, every response byte-identical to the unsharded reference —
  // first mined, then again through the result cache.
  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok());
  const std::string reference_text = Render(*reference);

  for (size_t m = 0; m < manifest_paths_->size(); ++m) {
    for (int threads : {1, 8}) {
      MiningService service;  // fresh: no carried-over cache
      MineRequest request = ManifestRequest(m);
      request.options.num_threads = threads;
      MiningResponse mined = service.Mine(request);
      ASSERT_TRUE(mined.status.ok())
          << (*manifest_paths_)[m] << ": " << mined.status.ToString();
      EXPECT_EQ(mined.source, ResponseSource::kMined);
      ASSERT_NE(mined.result, nullptr);
      EXPECT_EQ(Render(*mined.result), reference_text)
          << (*manifest_paths_)[m] << " threads=" << threads;

      MiningResponse cached = service.Mine(request);
      ASSERT_TRUE(cached.status.ok());
      EXPECT_EQ(cached.source, ResponseSource::kCache);
      EXPECT_EQ(cached.result.get(), mined.result.get());
    }
  }
}

TEST_F(ShardedMinerTest, RegistryBudgetHoldsWhileServingAManifest) {
  // Budget sized to roughly two shards: the 7-shard manifest's total
  // resident bytes exceed it, yet serving stays within it (asserted on
  // the registry's high-water mark), shards evicting as later ones
  // load.
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);
  ASSERT_TRUE(manifest.ok());
  int64_t max_shard_bytes = 0;
  int64_t total_shard_bytes = 0;
  for (const ShardInfo& info : manifest->shards) {
    StatusOr<TransactionDatabase> shard = ReadSnapshotFile(info.path);
    ASSERT_TRUE(shard.ok());
    const int64_t bytes = shard->ApproxMemoryBytes();
    total_shard_bytes += bytes;
    if (bytes > max_shard_bytes) max_shard_bytes = bytes;
  }
  const int64_t budget = max_shard_bytes * 2;
  ASSERT_GT(total_shard_bytes, budget)
      << "fixture must not fit the budget whole";

  MiningServiceOptions options;
  options.registry.memory_budget_bytes = budget;
  MiningService service(options);
  MiningResponse response = service.Mine(ManifestRequest(2));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.shards, 7);

  const MetricsRegistry& metrics = service.metrics();
  EXPECT_LE(Scrape(metrics, "colossal_dataset_peak_resident_bytes"), budget);
  EXPECT_GT(Scrape(metrics, "colossal_dataset_evictions_total"), 0);
  EXPECT_LE(Scrape(metrics, "colossal_dataset_resident_bytes"), budget);

  // Still the exact answer.
  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Render(*response.result), Render(*reference));
}

TEST_F(ShardedMinerTest, FanOutHoldsTheRegistryBudgetAndStaysExact) {
  // The fan-out acceptance criterion: a budget sized to roughly two
  // shards, a request asking for shard-parallelism 4 — the residency
  // governor plus GetPinned's reserve-before-load must keep the
  // registry's high-water mark within the budget while shards load
  // concurrently, and the answer must still be byte-identical to the
  // unsharded reference.
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[2]);  // 7 shards
  ASSERT_TRUE(manifest.ok());
  int64_t max_estimate = 0;
  int64_t total_estimate = 0;
  for (const ShardInfo& info : manifest->shards) {
    const int64_t estimate =
        EstimateShardResidentBytes(info, manifest->num_items);
    total_estimate += estimate;
    if (estimate > max_estimate) max_estimate = estimate;
  }
  const int64_t budget = max_estimate * 2;
  ASSERT_GT(total_estimate, budget)
      << "fixture must not fit the budget whole";

  MiningServiceOptions options;
  options.registry.memory_budget_bytes = budget;
  MiningService service(options);
  MineRequest request = ManifestRequest(2);
  request.options.shard_parallelism = 4;
  request.options.num_threads = 2;
  MiningResponse response = service.Mine(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.shards, 7);

  const MetricsRegistry& metrics = service.metrics();
  EXPECT_LE(Scrape(metrics, "colossal_dataset_peak_resident_bytes"), budget);
  EXPECT_LE(Scrape(metrics, "colossal_dataset_resident_bytes"), budget);
  EXPECT_GT(Scrape(metrics, "colossal_dataset_evictions_total"), 0);
  // Every pin and reservation drained with the mine.
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_pinned_bytes"), 0);
  EXPECT_EQ(Scrape(metrics, "colossal_dataset_reserved_bytes"), 0);

  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Render(*response.result), Render(*reference));
}

TEST_F(ShardedMinerTest, ServiceFanOutMatchesSequentialByteForByte) {
  // Through the full service path (registry-pinned loads included):
  // shard-parallelism {1, 2, 4} over the 7-shard manifest, all mined
  // fresh, all byte-identical — and all landing on one cache key, since
  // canonicalization erases the knob.
  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok());
  const std::string reference_text = Render(*reference);

  for (int parallelism : {1, 2, 4}) {
    MiningService service;  // fresh: no carried-over cache
    MineRequest request = ManifestRequest(2);
    request.options.shard_parallelism = parallelism;
    MiningResponse mined = service.Mine(request);
    ASSERT_TRUE(mined.status.ok())
        << "parallelism=" << parallelism << ": " << mined.status.ToString();
    EXPECT_EQ(mined.source, ResponseSource::kMined);
    EXPECT_EQ(Render(*mined.result), reference_text)
        << "parallelism=" << parallelism;

    // A replay differing only in parallelism is a cache hit.
    MineRequest replay = ManifestRequest(2);
    replay.options.shard_parallelism = parallelism == 4 ? 1 : 4;
    MiningResponse cached = service.Mine(replay);
    ASSERT_TRUE(cached.status.ok());
    EXPECT_EQ(cached.source, ResponseSource::kCache);
    EXPECT_EQ(cached.result.get(), mined.result.get());
  }
}

TEST_F(ShardedMinerTest, FailingMineWakesAllCoalescedWaiters) {
  // Identical concurrent requests coalesce onto one in-flight mine; if
  // that mine fails (a shard file deleted mid-flight here), every
  // waiter must wake with the error — a stranded waiter would hang this
  // test forever.
  const std::string dir = ::testing::TempDir();
  StatusOr<std::vector<ShardRange>> plan = [&] {
    ShardPlanOptions options;
    options.num_shards = 2;
    return PlanShards(*db_, options);
  }();
  ASSERT_TRUE(plan.ok());
  StatusOr<ShardWriteResult> written =
      WriteShardedSnapshots(*db_, *plan, dir, "sharded_waiters");
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(std::remove(written->shard_paths[1].c_str()), 0);

  MiningService service;
  MineRequest request;
  request.dataset_path = written->manifest_path;
  request.options = BaseOptions();
  request.options.shard_parallelism = 2;

  constexpr int kCallers = 4;
  std::vector<MiningResponse> responses(kCallers);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int i = 0; i < kCallers; ++i) {
      callers.emplace_back([&service, &request, &responses, i] {
        responses[static_cast<size_t>(i)] = service.Mine(request);
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
  for (const MiningResponse& response : responses) {
    ASSERT_FALSE(response.status.ok());
    EXPECT_EQ(response.status.code(), StatusCode::kNotFound)
        << response.status.ToString();
    EXPECT_EQ(response.source, ResponseSource::kFailed);
  }
  // The failed key left no stuck in-flight entry: a corrected manifest
  // (shards restored) mines cleanly on the next call.
  StatusOr<ShardWriteResult> rewritten =
      WriteShardedSnapshots(*db_, *plan, dir, "sharded_waiters");
  ASSERT_TRUE(rewritten.ok());
  MiningResponse retried = service.Mine(request);
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Render(*retried.result), Render(*reference));
}

TEST_F(ShardedMinerTest, BatchGroupsShardedAndUnshardedEquivalents) {
  // An exact sharded request and its unsharded equivalent share one
  // cache key, so however 8 batch workers interleave, the three lines
  // mine once and share that one result.
  MiningService service;
  const std::string options = " --min-support 8 --k 20 --pool-size 2";
  const std::string sharded = "--in " + (*manifest_paths_)[1] + options;
  const std::string unsharded = "--in " + *parent_path_ + options;
  const std::vector<ServeOutcome> outcomes =
      DispatchBatch(service, {sharded, unsharded, sharded}, /*threads=*/8);
  ASSERT_EQ(outcomes.size(), 3u);
  int mined = 0;
  for (const ServeOutcome& outcome : outcomes) {
    const MiningResponse& response = outcome.response;
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.result, nullptr);
    EXPECT_EQ(response.result.get(), outcomes[0].response.result.get());
    if (response.source == ResponseSource::kMined) {
      ++mined;
    } else {
      EXPECT_TRUE(response.source == ResponseSource::kCache ||
                  response.source == ResponseSource::kCoalesced)
          << ResponseSourceName(response.source);
    }
  }
  EXPECT_EQ(mined, 1);
  EXPECT_EQ(Scrape(service.metrics(), "colossal_responses_mined_total"), 1);
  EXPECT_EQ(outcomes[0].response.shards, 2);
  EXPECT_EQ(outcomes[1].response.shards, 0);
}

TEST_F(ShardedMinerTest, DispatchRoutesShardedRequestLines) {
  MiningService service;
  const std::string line = "--in " + (*manifest_paths_)[1] +
                           " --shards exact --min-support 8 --k 20 "
                           "--pool-size 2";
  // Dispatch goes through the same parser/service path as the daemon
  // and the TCP server, so sharded request lines work on every
  // transport by construction.
  ServeOutcome outcome = DispatchServeLine(service, line);
  ASSERT_EQ(outcome.kind, ServeOutcome::Kind::kResponse);
  ASSERT_TRUE(outcome.response.status.ok())
      << outcome.response.status.ToString();
  EXPECT_EQ(outcome.response.shards, 2);

  StatusOr<ColossalMiningResult> reference =
      MineColossal(*db_, BaseOptions());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(RenderPatternsPayload(outcome.response), Render(*reference));
}

}  // namespace
}  // namespace colossal
