#include "core/colossal_miner.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "data/generators.h"

namespace colossal {
namespace {

bool ResultContains(const ColossalMiningResult& result, const Itemset& items) {
  for (const Pattern& pattern : result.patterns) {
    if (pattern.items == items) return true;
  }
  return false;
}

TEST(ColossalMinerTest, ValidatesSigma) {
  TransactionDatabase db = MakePaperFigure3();
  ColossalMinerOptions options;
  options.sigma = 1.5;
  EXPECT_FALSE(MineColossal(db, options).ok());
}

// Canonicalization holds every check a mine's options must pass, so a
// bad request is refused before any pool is mined.
TEST(CanonicalizeMinerOptionsTest, RefusesInvalidOptions) {
  const TransactionDatabase db = MakePaperFigure3();  // 400 transactions
  ColossalMinerOptions valid;
  valid.min_support_count = 100;
  ASSERT_TRUE(CanonicalizeMinerOptions(db, valid).ok());

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* name;
    std::function<void(ColossalMinerOptions&)> spoil;
  } cases[] = {
      {"tau 0", [](ColossalMinerOptions& o) { o.tau = 0.0; }},
      {"tau 1.5", [](ColossalMinerOptions& o) { o.tau = 1.5; }},
      {"tau NaN", [](ColossalMinerOptions& o) { o.tau = kNaN; }},
      {"sigma NaN", [](ColossalMinerOptions& o) { o.sigma = kNaN; }},
      {"sigma -NaN", [](ColossalMinerOptions& o) { o.sigma = -kNaN; }},
      {"sigma 1.5", [](ColossalMinerOptions& o) { o.sigma = 1.5; }},
      {"k 0", [](ColossalMinerOptions& o) { o.k = 0; }},
      {"top_k -1", [](ColossalMinerOptions& o) { o.top_k = -1; }},
      {"max_iterations 0",
       [](ColossalMinerOptions& o) { o.max_iterations = 0; }},
      {"attempts 0",
       [](ColossalMinerOptions& o) { o.fusion_attempts_per_seed = 0; }},
      {"retain 0",
       [](ColossalMinerOptions& o) { o.max_superpatterns_per_seed = 0; }},
      {"min-support 0",
       [](ColossalMinerOptions& o) { o.min_support_count = 0; }},
      {"min-support above the row count",
       [](ColossalMinerOptions& o) { o.min_support_count = 401; }},
      {"pool size 0",
       [](ColossalMinerOptions& o) { o.initial_pool_max_size = 0; }},
      {"num_threads -1", [](ColossalMinerOptions& o) { o.num_threads = -1; }},
      {"shard_parallelism -1",
       [](ColossalMinerOptions& o) { o.shard_parallelism = -1; }},
      {"min_len -1",
       [](ColossalMinerOptions& o) { o.constraints.min_len = -1; }},
  };
  for (const auto& bad : cases) {
    ColossalMinerOptions options = valid;
    bad.spoil(options);
    EXPECT_EQ(CanonicalizeMinerOptions(db, options).status().code(),
              StatusCode::kInvalidArgument)
        << bad.name;
  }

  // The effective K is top_k when set: k 0 is then never read.
  ColossalMinerOptions top_k = valid;
  top_k.k = 0;
  top_k.top_k = 5;
  EXPECT_TRUE(CanonicalizeMinerOptions(db, top_k).ok());
  // The boundary values pass: τ 1, min-support |D|, sigma 0 and 1.
  ColossalMinerOptions edges = valid;
  edges.tau = 1.0;
  edges.min_support_count = 400;
  EXPECT_TRUE(CanonicalizeMinerOptions(db, edges).ok());
  for (double sigma : {0.0, 1.0}) {
    ColossalMinerOptions by_sigma = valid;
    by_sigma.sigma = sigma;
    EXPECT_TRUE(CanonicalizeMinerOptions(db, by_sigma).ok()) << sigma;
  }
}

TEST(ColossalMinerTest, InvalidOptionsAreRefusedBeforeThePoolIsMined) {
  const TransactionDatabase db = MakePaperFigure3();
  ColossalMinerOptions options;
  options.min_support_count = 100;
  options.tau = 0.0;
  Arena arena;
  RequestTrace trace;
  StatusOr<ColossalMiningResult> result =
      MineColossal(db, options, &arena, &trace);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), "tau must be in (0, 1]");
  EXPECT_EQ(trace.nanos(TracePhase::kPoolMine), 0);
  EXPECT_EQ(trace.nanos(TracePhase::kFusion), 0);
  EXPECT_EQ(trace.pool_nodes_expanded.load(), 0);
  EXPECT_EQ(arena.high_water_bytes(), 0);
}

TEST(ColossalMinerTest, SigmaTakesPrecedenceOverAbsoluteCount) {
  TransactionDatabase db = MakePaperFigure3();  // 400 transactions
  ColossalMinerOptions options;
  options.sigma = 0.5;              // → 200
  options.min_support_count = 1;    // ignored
  options.initial_pool_max_size = 1;
  options.k = 10;
  StatusOr<ColossalMiningResult> result = MineColossal(db, options);
  ASSERT_TRUE(result.ok());
  for (const Pattern& pattern : result->patterns) {
    EXPECT_GE(pattern.support, 200);
  }
}

TEST(ColossalMinerTest, TinySigmaClampsToSupportOne) {
  TransactionDatabase db = MakePaperFigure3();
  ColossalMinerOptions options;
  options.sigma = 0.0;
  options.initial_pool_max_size = 1;
  options.k = 50;
  EXPECT_TRUE(MineColossal(db, options).ok());
}

TEST(ColossalMinerTest, Figure3EndToEnd) {
  TransactionDatabase db = MakePaperFigure3();
  ColossalMinerOptions options;
  options.min_support_count = 100;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 5;
  options.seed = 3;
  StatusOr<ColossalMiningResult> result = MineColossal(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->initial_pool_size, 15);
  EXPECT_TRUE(ResultContains(*result, Itemset({0, 1, 2, 3, 4})));
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->iteration_stats.size(),
            static_cast<size_t>(result->iterations));
}

TEST(ColossalMinerTest, DiagPlusFindsTheColossalPattern) {
  LabeledDatabase labeled = MakeDiagPlus(40, 20);
  ColossalMinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 100;
  options.seed = 7;
  StatusOr<ColossalMiningResult> result = MineColossal(labeled.db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->initial_pool_size, 1600);
  EXPECT_TRUE(ResultContains(*result, labeled.planted[0]));
  EXPECT_EQ(result->patterns[0].size(), 39);
}

// The paper's headline microarray claim: Pattern-Fusion "is able to get
// all the largest colossal patterns with size greater than 85". Verify
// on the ALL stand-in: the five planted patterns larger than 85 must all
// be recovered.
TEST(ColossalMinerTest, MicroarrayRecoversAllPatternsAbove85) {
  LabeledDatabase labeled = MakeMicroarrayLike(42);
  ColossalMinerOptions options;
  options.min_support_count = 30;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 100;
  options.seed = 1;
  StatusOr<ColossalMiningResult> result = MineColossal(labeled.db, options);
  ASSERT_TRUE(result.ok());
  int recovered_large = 0;
  int planted_large = 0;
  for (const Itemset& planted : labeled.planted) {
    if (planted.size() <= 85) continue;
    ++planted_large;
    if (ResultContains(*result, planted)) ++recovered_large;
  }
  EXPECT_EQ(planted_large, 5);  // 110, 107, 102, 91, 86
  EXPECT_EQ(recovered_large, 5);
  // And the overwhelming majority of all 22 planted patterns.
  int recovered_total = 0;
  for (const Itemset& planted : labeled.planted) {
    if (ResultContains(*result, planted)) ++recovered_total;
  }
  EXPECT_GE(recovered_total, 18);
}

// The paper's Replace claim: "with different settings of K and τ,
// Pattern-Fusion is always able to find all these three colossal
// patterns" (the size-44 ones).
class TraceSettingsTest
    : public ::testing::TestWithParam<std::pair<int, double>> {};

TEST_P(TraceSettingsTest, FindsAllThreeSize44Paths) {
  const auto [k, tau] = GetParam();
  LabeledDatabase labeled = MakeProgramTraceLike(42);
  ColossalMinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.initial_pool_max_size = 3;
  options.tau = tau;
  options.k = k;
  options.seed = 5;
  StatusOr<ColossalMiningResult> result = MineColossal(labeled.db, options);
  ASSERT_TRUE(result.ok());
  for (const Itemset& path : labeled.planted) {
    EXPECT_TRUE(ResultContains(*result, path)) << "k=" << k << " tau=" << tau;
  }
  EXPECT_EQ(result->patterns[0].size(), 44);
}

INSTANTIATE_TEST_SUITE_P(
    KTauGrid, TraceSettingsTest,
    ::testing::Values(std::make_pair(50, 0.1), std::make_pair(100, 0.25),
                      std::make_pair(100, 0.5)));

TEST(ColossalMinerTest, TimesItsOwnPhasesIntoATrace) {
  // The core times its two phases itself, so a library caller passing a
  // RequestTrace gets the server's phase split; an unsharded mine never
  // stitches. Output is the same with or without the trace.
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  ColossalMinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.initial_pool_max_size = 2;
  options.k = 30;
  Arena arena;
  RequestTrace trace;
  StatusOr<ColossalMiningResult> traced =
      MineColossal(labeled.db, options, &arena, &trace);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_GT(trace.nanos(TracePhase::kPoolMine), 0);
  EXPECT_GT(trace.nanos(TracePhase::kFusion), 0);
  EXPECT_EQ(trace.nanos(TracePhase::kStitch), 0);

  StatusOr<ColossalMiningResult> untraced = MineColossal(labeled.db, options);
  ASSERT_TRUE(untraced.ok());
  ASSERT_EQ(traced->patterns.size(), untraced->patterns.size());
  for (size_t i = 0; i < traced->patterns.size(); ++i) {
    EXPECT_TRUE(traced->patterns[i] == untraced->patterns[i]) << i;
  }
}

TEST(ColossalMinerTest, ReportsIterationTrajectory) {
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  ColossalMinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.initial_pool_max_size = 1;
  options.k = 5;
  options.seed = 2;
  StatusOr<ColossalMiningResult> result = MineColossal(labeled.db, options);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->iterations, 1);
  for (const FusionIterationStats& stats : result->iteration_stats) {
    EXPECT_GE(stats.pool_size, 1);
    EXPECT_LE(stats.min_pattern_size, stats.max_pattern_size);
  }
}

}  // namespace
}  // namespace colossal
