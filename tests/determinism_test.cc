// Determinism regression tests for the parallel fusion loop: with a
// fixed seed, the entire pipeline — initial-pool mining and pattern
// fusion — must produce bit-identical output for every thread count.
// This is the contract that lets `--threads` be a pure performance knob.

#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/bitvector_kernels.h"
#include "core/colossal_miner.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "mining/eclat.h"

namespace colossal {
namespace {

// Compares full patterns (itemset, support, support set), not just
// itemsets: a scheduling-dependent support-set would be a real bug even
// if the itemsets happened to agree.
void ExpectSamePatterns(const std::vector<Pattern>& a,
                        const std::vector<Pattern>& b, int threads) {
  ASSERT_EQ(a.size(), b.size()) << "num_threads=" << threads;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "pattern " << i << " differs at num_threads="
                          << threads;
  }
}

TEST(DeterminismTest, MineColossalIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(30, 15);
  ColossalMinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 50;
  options.seed = 7;

  options.num_threads = 1;
  StatusOr<ColossalMiningResult> reference = MineColossal(labeled.db, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<ColossalMiningResult> result = MineColossal(labeled.db, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->initial_pool_size, reference->initial_pool_size);
    EXPECT_EQ(result->iterations, reference->iterations);
    EXPECT_EQ(result->converged, reference->converged);
    ExpectSamePatterns(result->patterns, reference->patterns, threads);
  }
}

TEST(DeterminismTest, FuseColossalFromPoolIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeMicroarrayLike(5);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, 30, 2, PoolMiner::kApriori, 1);
  ASSERT_TRUE(pool.ok());

  ColossalMinerOptions options;
  options.min_support_count = 30;
  options.tau = 0.5;
  options.k = 40;
  options.seed = 19;

  options.num_threads = 1;
  StatusOr<ColossalMiningResult> reference =
      FuseColossalFromPool(labeled.db.num_transactions(), *pool, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<ColossalMiningResult> result =
        FuseColossalFromPool(labeled.db.num_transactions(), *pool, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->converged, reference->converged);
    EXPECT_EQ(result->iterations, reference->iterations);
    ASSERT_EQ(result->iteration_stats.size(),
              reference->iteration_stats.size());
    for (size_t i = 0; i < result->iteration_stats.size(); ++i) {
      EXPECT_EQ(result->iteration_stats[i].pool_size,
                reference->iteration_stats[i].pool_size);
      EXPECT_EQ(result->iteration_stats[i].min_pattern_size,
                reference->iteration_stats[i].min_pattern_size);
      EXPECT_EQ(result->iteration_stats[i].max_pattern_size,
                reference->iteration_stats[i].max_pattern_size);
    }
    ExpectSamePatterns(result->patterns, reference->patterns, threads);
  }
}

TEST(DeterminismTest, AprioriIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(24, 12);
  MinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.max_pattern_size = 3;

  options.num_threads = 1;
  StatusOr<MiningResult> reference = MineApriori(labeled.db, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<MiningResult> result = MineApriori(labeled.db, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->patterns, reference->patterns)
        << "num_threads=" << threads;
    EXPECT_EQ(result->stats.nodes_expanded, reference->stats.nodes_expanded);
  }
}

TEST(DeterminismTest, EclatIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(24, 12);
  MinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.max_pattern_size = 3;

  options.num_threads = 1;
  StatusOr<MiningResult> reference = MineEclat(labeled.db, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    StatusOr<MiningResult> result = MineEclat(labeled.db, options);
    ASSERT_TRUE(result.ok()) << "num_threads=" << threads;
    EXPECT_EQ(result->patterns, reference->patterns)
        << "num_threads=" << threads;
    EXPECT_EQ(result->stats.nodes_expanded, reference->stats.nodes_expanded);
  }
}

TEST(DeterminismTest, NegativeNumThreadsIsRejectedNotFatal) {
  TransactionDatabase db = MakeDiag(6);
  MinerOptions miner_options;
  miner_options.min_support_count = 1;
  miner_options.num_threads = -1;
  EXPECT_FALSE(MineApriori(db, miner_options).ok());
  EXPECT_FALSE(MineEclat(db, miner_options).ok());
}

TEST(DeterminismTest, BuildInitialPoolIdenticalAcrossThreadCounts) {
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  StatusOr<std::vector<Pattern>> reference = BuildInitialPool(
      labeled.db, labeled.min_support_count, 2, PoolMiner::kApriori, 1);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 8}) {
    StatusOr<std::vector<Pattern>> pool =
        BuildInitialPool(labeled.db, labeled.min_support_count, 2,
                         PoolMiner::kApriori, threads);
    ASSERT_TRUE(pool.ok());
    ExpectSamePatterns(*pool, *reference, threads);
  }
}

// Arena backing is a pure allocation strategy: the mine must produce
// bit-identical output with a caller's arena and without one (then
// MineColossal, or FuseColossalFromPool for a caller's own pool, mines
// on an arena of its own), at one thread and at several, and nothing in
// any result may still point into an arena (the caller's dies with its
// request; the miner's own dies on return).
TEST(DeterminismTest, MineColossalIdenticalWithAndWithoutArena) {
  LabeledDatabase labeled = MakeDiagPlus(30, 15);
  ColossalMinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 50;
  options.seed = 7;

  for (int threads : {1, 4}) {
    options.num_threads = threads;
    StatusOr<ColossalMiningResult> own = MineColossal(labeled.db, options);
    ASSERT_TRUE(own.ok()) << "num_threads=" << threads;
    for (const Pattern& pattern : own->patterns) {
      EXPECT_FALSE(pattern.support_set.arena_backed())
          << "result escaped with MineColossal's own arena storage at "
             "num_threads="
          << threads;
    }

    Arena arena;
    StatusOr<ColossalMiningResult> arena_backed =
        MineColossal(labeled.db, options, &arena);
    ASSERT_TRUE(arena_backed.ok()) << "num_threads=" << threads;
    EXPECT_GT(arena.high_water_bytes(), 0) << "arena was never used";

    EXPECT_EQ(arena_backed->initial_pool_size, own->initial_pool_size);
    EXPECT_EQ(arena_backed->iterations, own->iterations);
    EXPECT_EQ(arena_backed->converged, own->converged);
    ExpectSamePatterns(arena_backed->patterns, own->patterns, threads);
    for (const Pattern& pattern : arena_backed->patterns) {
      EXPECT_FALSE(pattern.support_set.arena_backed())
          << "result escaped with arena-backed storage at num_threads="
          << threads;
    }

    // A Reset arena mines the same answer again.
    arena.Reset();
    StatusOr<ColossalMiningResult> again =
        MineColossal(labeled.db, options, &arena);
    ASSERT_TRUE(again.ok()) << "num_threads=" << threads;
    ExpectSamePatterns(again->patterns, own->patterns, threads);

    // The fusion half alone, on a heap-backed pool: with a caller's
    // arena and on its own, the same answer as the whole mine.
    StatusOr<std::vector<Pattern>> pool = BuildInitialPool(
        labeled.db, options.min_support_count, options.initial_pool_max_size);
    ASSERT_TRUE(pool.ok());
    Arena fusion_arena;
    for (Arena* fuse_on : {static_cast<Arena*>(nullptr), &fusion_arena}) {
      StatusOr<ColossalMiningResult> fused = FuseColossalFromPool(
          labeled.db.num_transactions(), *pool, options, fuse_on);
      ASSERT_TRUE(fused.ok()) << "num_threads=" << threads;
      EXPECT_EQ(fused->iterations, own->iterations);
      EXPECT_EQ(fused->converged, own->converged);
      ExpectSamePatterns(fused->patterns, own->patterns, threads);
      for (const Pattern& pattern : fused->patterns) {
        EXPECT_FALSE(pattern.support_set.arena_backed())
            << "fused result escaped with arena-backed storage at "
               "num_threads="
            << threads;
      }
    }
    EXPECT_GT(fusion_arena.high_water_bytes(), 0)
        << "fusion never used the caller's arena";
  }
}

// Backend dispatch is invisible in the output: the scalar kernels and
// whatever backend the host resolves (AVX2 here when supported) must
// mine bit-identical results. On a scalar-only host the two runs
// coincide; CI's COLOSSAL_FORCE_SCALAR leg plus an AVX2 host cover both
// sides.
TEST(DeterminismTest, MineColossalIdenticalAcrossKernelBackends) {
  LabeledDatabase labeled = MakeMicroarrayLike(5);
  ColossalMinerOptions options;
  options.min_support_count = 30;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 40;
  options.seed = 19;

  SetBitvectorForceScalar(true);
  StatusOr<ColossalMiningResult> scalar = MineColossal(labeled.db, options);
  SetBitvectorForceScalar(false);
  ASSERT_TRUE(scalar.ok());

  StatusOr<ColossalMiningResult> dispatched =
      MineColossal(labeled.db, options);
  ASSERT_TRUE(dispatched.ok());

  EXPECT_EQ(dispatched->initial_pool_size, scalar->initial_pool_size);
  EXPECT_EQ(dispatched->iterations, scalar->iterations);
  EXPECT_EQ(dispatched->converged, scalar->converged);
  ExpectSamePatterns(dispatched->patterns, scalar->patterns, 1);
}

}  // namespace
}  // namespace colossal
