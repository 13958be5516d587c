// Top-k colossal and constrained mining, end to end: constraint
// pushdown provably skips excluded items before any Bitvector
// materializes, result shaping matches its definition, and both modes
// are byte-identical across thread counts, shard counts, shard
// parallelism and kernel backends — the same determinism contract the
// unconstrained pipeline has always had.

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/bitvector_kernels.h"
#include "core/colossal_miner.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/eclat.h"
#include "mining/result_io.h"
#include "shard/shard_planner.h"
#include "shard/sharded_miner.h"

namespace colossal {
namespace {

std::string Render(const ColossalMiningResult& result) {
  return PatternsToString(ToFrequentItemsets(result.patterns));
}

// The introduction's scenario (planted colossal block over items
// [16, 31] at support 8, Diag noise below), sharded as {1, 2, 7}
// manifests — the same construction the sharded-miner tests use.
class ConstrainedMiningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new TransactionDatabase(MakeDiagPlus(16, 8).db);
    manifest_paths_ = new std::vector<std::string>();
    const std::string dir = ::testing::TempDir();
    for (int shards : {1, 2, 7}) {
      ShardPlanOptions options;
      options.num_shards = shards;
      StatusOr<std::vector<ShardRange>> plan = PlanShards(*db_, options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      StatusOr<ShardWriteResult> written = WriteShardedSnapshots(
          *db_, *plan, dir, "constrained_" + std::to_string(shards));
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      manifest_paths_->push_back(written->manifest_path);
    }
  }

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

  static ColossalMinerOptions TopKOptions() {
    ColossalMinerOptions options;
    options.min_support_count = 8;
    options.initial_pool_max_size = 2;
    options.top_k = 5;
    options.seed = 3;
    return options;
  }

  static ColossalMinerOptions ConstrainedOptions() {
    ColossalMinerOptions options;
    options.min_support_count = 8;
    options.initial_pool_max_size = 2;
    options.k = 20;
    options.constraints.exclude = {0, 1};
    options.constraints.min_len = 2;
    options.seed = 3;
    return options;
  }

  static TransactionDatabase* db_;
  static std::vector<std::string>* manifest_paths_;  // 1, 2, 7 shards
};

TransactionDatabase* ConstrainedMiningTest::db_ = nullptr;
std::vector<std::string>* ConstrainedMiningTest::manifest_paths_ = nullptr;

// The acceptance-criterion proof that exclusion happens BEFORE
// materialization: with the pool bounded to single items, the complete
// miners' node counts and arena footprints are exact functions of how
// many items they touch — an excluded item must subtract its node AND
// its Bitvector copy, not just vanish from the output.
TEST(ConstraintPushdownTest, ExcludedItemsNeverMaterializeBitvectors) {
  const TransactionDatabase db = MakeDiag(12);  // every item frequent
  MinerOptions unconstrained;
  unconstrained.min_support_count = 1;
  unconstrained.max_pattern_size = 1;
  MinerOptions constrained = unconstrained;
  constrained.constraints.exclude = {2, 5, 9};

  for (bool eclat : {false, true}) {
    Arena full_arena;
    Arena pruned_arena;
    MinerOptions full = unconstrained;
    full.arena = &full_arena;
    MinerOptions pruned = constrained;
    pruned.arena = &pruned_arena;
    StatusOr<MiningResult> all =
        eclat ? MineEclat(db, full) : MineApriori(db, full);
    StatusOr<MiningResult> some =
        eclat ? MineEclat(db, pruned) : MineApriori(db, pruned);
    ASSERT_TRUE(all.ok());
    ASSERT_TRUE(some.ok());

    // Node accounting: excluded items are not expanded at all. Both
    // miners stop at the 12 (resp. 9) level-1 nodes — Eclat never
    // probes children of a root already at the size bound.
    const int64_t full_items = db.num_items();
    const int64_t pruned_items = full_items - 3;
    EXPECT_EQ(all->stats.nodes_expanded, full_items) << eclat;
    EXPECT_EQ(some->stats.nodes_expanded, pruned_items) << eclat;
    EXPECT_EQ(some->patterns.size(), all->patterns.size() - 3) << eclat;
    for (const FrequentItemset& pattern : some->patterns) {
      for (ItemId item : pattern.items) {
        EXPECT_TRUE(pruned.constraints.ItemAllowed(item));
      }
    }
    // Arena accounting: at pool size 1 the arena holds exactly the
    // surviving items' tidset copies, so three skipped items must show
    // up as strictly less scratch — the Bitvectors were never built.
    EXPECT_LT(pruned_arena.high_water_bytes(), full_arena.high_water_bytes())
        << eclat;
    EXPECT_GT(pruned_arena.high_water_bytes(), 0) << eclat;
  }
}

TEST(ConstraintPushdownTest, IncludeListBoundsTheVocabulary) {
  const TransactionDatabase db = MakeDiag(12);
  MinerOptions options;
  options.min_support_count = 1;
  options.max_pattern_size = 2;
  options.constraints.include = {0, 3, 7};
  StatusOr<MiningResult> mined = MineApriori(db, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined->patterns.empty());
  for (const FrequentItemset& pattern : mined->patterns) {
    for (ItemId item : pattern.items) {
      EXPECT_TRUE(options.constraints.ItemAllowed(item));
    }
  }
}

// Top-k mode is, by definition, the k-largest prefix of the same
// pipeline run with the fusion budget k = top_k: canonicalization
// rewrites k, so the two spellings must mine identically up to the
// final truncation.
TEST_F(ConstrainedMiningTest, TopKIsTheTruncatedEquivalentRun) {
  ColossalMinerOptions top_k = TopKOptions();
  ColossalMinerOptions equivalent = top_k;
  equivalent.top_k = 0;
  equivalent.k = TopKOptions().top_k;

  StatusOr<ColossalMiningResult> shaped = MineColossal(*db_, top_k);
  StatusOr<ColossalMiningResult> full = MineColossal(*db_, equivalent);
  ASSERT_TRUE(shaped.ok()) << shaped.status().ToString();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  ASSERT_LE(shaped->patterns.size(), static_cast<size_t>(top_k.top_k));
  ASSERT_LE(shaped->patterns.size(), full->patterns.size());
  for (size_t i = 0; i < shaped->patterns.size(); ++i) {
    EXPECT_TRUE(shaped->patterns[i] == full->patterns[i]) << i;
  }
  // Largest-first is the result order, so the truncation is "the k
  // largest" under (size desc, lex).
  for (size_t i = 1; i < shaped->patterns.size(); ++i) {
    EXPECT_GE(shaped->patterns[i - 1].size(), shaped->patterns[i].size());
  }
}

TEST_F(ConstrainedMiningTest, LengthBoundsShapeTheAnswer) {
  ColossalMinerOptions bounded;
  bounded.min_support_count = 8;
  bounded.initial_pool_max_size = 3;
  bounded.k = 20;
  bounded.constraints.min_len = 2;
  bounded.constraints.max_len = 4;
  StatusOr<ColossalMiningResult> mined = MineColossal(*db_, bounded);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined->patterns.empty());
  for (const Pattern& pattern : mined->patterns) {
    EXPECT_GE(pattern.size(), 2);
    EXPECT_LE(pattern.size(), 4);
  }
  // max_len pushdown: the canonical pool never mines past the bound.
  StatusOr<ColossalMinerOptions> canonical =
      CanonicalizeMinerOptions(*db_, bounded);
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(canonical->initial_pool_max_size, 3);
  bounded.constraints.max_len = 2;
  canonical = CanonicalizeMinerOptions(*db_, bounded);
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(canonical->initial_pool_max_size, 2);
}

// The determinism matrix, both modes: threads {1, 8} × shards {1, 2, 7}
// × shard parallelism {1, 4} × {scalar, dispatched} kernels, every cell
// byte-identical to the single-threaded unsharded reference (exact
// sharding reproduces unsharded mining; performance knobs never touch
// the answer).
TEST_F(ConstrainedMiningTest, ModesAreByteIdenticalAcrossTheMatrix) {
  for (const bool top_k_mode : {true, false}) {
    const ColossalMinerOptions base =
        top_k_mode ? TopKOptions() : ConstrainedOptions();
    StatusOr<ColossalMiningResult> reference = MineColossal(*db_, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string reference_text = Render(*reference);
    ASSERT_FALSE(reference_text.empty());

    for (const bool force_scalar : {false, true}) {
      SetBitvectorForceScalar(force_scalar);
      for (int threads : {1, 8}) {
        ColossalMinerOptions options = base;
        options.num_threads = threads;
        StatusOr<ColossalMiningResult> unsharded =
            MineColossal(*db_, options);
        ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
        EXPECT_EQ(Render(*unsharded), reference_text)
            << "top_k=" << top_k_mode << " scalar=" << force_scalar
            << " threads=" << threads;

        for (const std::string& manifest_path : *manifest_paths_) {
          StatusOr<ShardManifest> manifest =
              ReadShardManifestFile(manifest_path);
          ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
          for (int parallelism : {1, 4}) {
            options.shard_parallelism = parallelism;
            ShardedMiner miner(*manifest, DiskLoader());
            StatusOr<ColossalMiningResult> sharded =
                miner.Mine(options, ShardMergeMode::kExact);
            ASSERT_TRUE(sharded.ok())
                << manifest_path << ": " << sharded.status().ToString();
            EXPECT_EQ(Render(*sharded), reference_text)
                << "top_k=" << top_k_mode << " scalar=" << force_scalar
                << " threads=" << threads << " manifest=" << manifest_path
                << " parallelism=" << parallelism;
          }
          options.shard_parallelism = 0;
        }
      }
      SetBitvectorForceScalar(false);
    }
  }
}

// Fuse mode is approximate per manifest, but within one manifest the
// answer must still be invariant across every performance knob — and
// the result shaping (top-k truncation, min_len) must hold there too.
TEST_F(ConstrainedMiningTest, FuseModeShapesResultsDeterministically) {
  for (const std::string& manifest_path : *manifest_paths_) {
    StatusOr<ShardManifest> manifest = ReadShardManifestFile(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    std::string reference_text;
    for (int threads : {1, 8}) {
      for (int parallelism : {1, 4}) {
        ColossalMinerOptions options = TopKOptions();
        options.num_threads = threads;
        options.shard_parallelism = parallelism;
        ShardedMiner miner(*manifest, DiskLoader());
        StatusOr<ColossalMiningResult> fused =
            miner.Mine(options, ShardMergeMode::kFuse);
        ASSERT_TRUE(fused.ok())
            << manifest_path << ": " << fused.status().ToString();
        EXPECT_LE(fused->patterns.size(),
                  static_cast<size_t>(options.top_k));
        const std::string text = Render(*fused);
        if (reference_text.empty()) {
          reference_text = text;
        } else {
          EXPECT_EQ(text, reference_text)
              << manifest_path << " threads=" << threads
              << " parallelism=" << parallelism;
        }
      }
    }
    EXPECT_FALSE(reference_text.empty()) << manifest_path;
  }
}

// Constrained sharded mining inherits the never-materialize guarantee:
// the planted block mines identically whether the Diag noise vocabulary
// is excluded or merely absent from the answer, and excluding it
// shrinks per-shard arena footprints (the shards simply never build
// those tidsets).
TEST_F(ConstrainedMiningTest, ShardedConstraintPushdownSkipsExcludedItems) {
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile((*manifest_paths_)[1]);  // 2 shards
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  ColossalMinerOptions unconstrained;
  unconstrained.min_support_count = 8;
  unconstrained.initial_pool_max_size = 2;
  unconstrained.k = 20;
  ColossalMinerOptions constrained = unconstrained;
  // Allow only the planted block's vocabulary (items 16..31).
  for (ItemId item = 16; item < 32; ++item) {
    constrained.constraints.include.push_back(item);
  }

  RequestTrace full_trace;
  RequestTrace pruned_trace;
  ShardResidencyOptions residency;
  residency.trace = &full_trace;
  ShardedMiner full(*manifest, DiskLoader(), residency);
  StatusOr<ColossalMiningResult> all =
      full.Mine(unconstrained, ShardMergeMode::kExact);
  ASSERT_TRUE(all.ok()) << all.status().ToString();

  residency.trace = &pruned_trace;
  ShardedMiner pruned(*manifest, DiskLoader(), residency);
  StatusOr<ColossalMiningResult> some =
      pruned.Mine(constrained, ShardMergeMode::kExact);
  ASSERT_TRUE(some.ok()) << some.status().ToString();

  for (const Pattern& pattern : some->patterns) {
    for (ItemId item : pattern.items) {
      EXPECT_GE(item, 16u);
    }
  }
  // The Diag vocabulary dominates the unconstrained pool's scratch, so
  // skipping it must show in the shards' peak arena bytes.
  const std::atomic<int64_t>& full_peak = full_trace.arena_peak_bytes;
  const std::atomic<int64_t>& pruned_peak = pruned_trace.arena_peak_bytes;
  EXPECT_LT(pruned_peak.load(), full_peak.load());
  EXPECT_GT(pruned_peak.load(), 0);
}

}  // namespace
}  // namespace colossal
