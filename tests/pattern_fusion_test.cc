#include "core/pattern_fusion.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/rng.h"
#include "core/pattern_distance.h"
#include "core/pattern_pool.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "mining/eclat.h"

namespace colossal {
namespace {

// --- Reference primitives -------------------------------------------------
// The direct forms of the two fusion hot loops: FuseOnce's absorbed and
// max-items checks as a merge-walk over the fused items (IsSubsetOf,
// IntersectionSize), and BallQuery's distance as AndNone followed by
// JaccardDistance (OrCount + AndCount). The production versions (item
// bitmap; one AndCount plus held supports) must agree with them exactly.

FusionOutcome ReferenceFuseOnce(const std::vector<Pattern>& pool,
                                const std::vector<int64_t>& ball_order,
                                int64_t seed_index, int64_t min_support_count,
                                double tau, int max_merges, int max_items) {
  const Pattern& seed = pool[static_cast<size_t>(seed_index)];
  FusionOutcome outcome;
  outcome.fused = seed;
  outcome.merged_count = 1;
  int64_t max_merged_support = seed.support;
  for (int64_t index : ball_order) {
    if (max_merges != 0 && outcome.merged_count >= max_merges) break;
    if (index == seed_index) continue;
    const Pattern& member = pool[static_cast<size_t>(index)];
    if (member.items.IsSubsetOf(outcome.fused.items)) continue;
    if (max_items != 0 &&
        outcome.fused.size() + member.size() -
                IntersectionSize(outcome.fused.items, member.items) >
            max_items) {
      continue;
    }
    const int64_t merged_support =
        Bitvector::AndCount(outcome.fused.support_set, member.support_set);
    if (merged_support < min_support_count) continue;
    const double needed =
        tau * static_cast<double>(
                  std::max(max_merged_support, member.support)) -
        1e-12;
    if (static_cast<double>(merged_support) < needed) continue;
    outcome.fused.items = Union(outcome.fused.items, member.items);
    outcome.fused.support_set.AndWith(member.support_set);
    outcome.fused.support = merged_support;
    max_merged_support = std::max(max_merged_support, member.support);
    ++outcome.merged_count;
  }
  return outcome;
}

std::vector<int64_t> ReferenceBallQuery(const std::vector<Pattern>& pool,
                                        const Pattern& center,
                                        double radius) {
  constexpr double kEpsilon = 1e-9;
  std::vector<int64_t> members;
  for (size_t i = 0; i < pool.size(); ++i) {
    const Bitvector& other = pool[i].support_set;
    if (Bitvector::AndNone(other, center.support_set)) {
      if (1.0 <= radius + kEpsilon ||
          (other.None() && center.support_set.None())) {
        members.push_back(static_cast<int64_t>(i));
      }
      continue;
    }
    if (Bitvector::JaccardDistance(other, center.support_set) <=
        radius + kEpsilon) {
      members.push_back(static_cast<int64_t>(i));
    }
  }
  return members;
}

Pattern PatternOf(Itemset items, Bitvector support_set) {
  Pattern pattern;
  pattern.items = std::move(items);
  pattern.support = support_set.Count();
  pattern.support_set = std::move(support_set);
  return pattern;
}

// A random pool of `size` patterns over `num_bits` transactions. Items
// come from a sparse universe (ids past one bitmap word, up to 70000),
// so the fused-item bitmap must grow; support sets are empty, all-set,
// or random at densities from sparse to near-full, so merges both pass
// and fail the frequency and τ-core tests.
std::vector<Pattern> RandomPool(Rng& rng, int64_t num_bits, int size) {
  static const std::vector<ItemId> kUniverse = {
      0, 1, 2, 3, 5, 8, 13, 63, 64, 65, 127, 128, 700, 4095, 70000};
  std::vector<Pattern> pool;
  for (int p = 0; p < size; ++p) {
    std::vector<ItemId> items;
    const int64_t count = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < count; ++i) {
      items.push_back(kUniverse[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kUniverse.size()) - 1))]);
    }
    Bitvector support_set(num_bits);
    const int64_t kind = rng.UniformInt(0, 7);
    if (kind == 0) {
      // empty support set
    } else if (kind == 1) {
      support_set = Bitvector::AllSet(num_bits);
    } else {
      const double density = kind == 2 ? 0.1 : 0.6 + 0.05 * kind;
      for (int64_t bit = 0; bit < num_bits; ++bit) {
        if (rng.Bernoulli(density)) support_set.Set(bit);
      }
    }
    pool.push_back(PatternOf(Itemset::FromUnsorted(std::move(items)),
                             std::move(support_set)));
  }
  return pool;
}

TEST(PatternPoolTest, DeduplicatesByItemset) {
  TransactionDatabase db = MakePaperFigure3();
  PatternPool pool;
  EXPECT_TRUE(pool.Add(MakePattern(db, Itemset({0}))));
  EXPECT_FALSE(pool.Add(MakePattern(db, Itemset({0}))));
  EXPECT_TRUE(pool.Add(MakePattern(db, Itemset({0, 1}))));
  EXPECT_EQ(pool.size(), 2);
  EXPECT_TRUE(pool.Contains(Itemset({0})));
  EXPECT_FALSE(pool.Contains(Itemset({1})));
}

TEST(PatternPoolTest, SizeExtremes) {
  TransactionDatabase db = MakePaperFigure3();
  PatternPool pool;
  EXPECT_EQ(pool.MinPatternSize(), 0);
  pool.Add(MakePattern(db, Itemset({0, 1, 3})));
  pool.Add(MakePattern(db, Itemset({2})));
  EXPECT_EQ(pool.MinPatternSize(), 1);
  EXPECT_EQ(pool.MaxPatternSize(), 3);
}

TEST(PatternPoolTest, DrawSeedsAreDistinctAndClamped) {
  TransactionDatabase db = MakePaperFigure3();
  PatternPool pool;
  for (ItemId item = 0; item < 5; ++item) {
    pool.Add(MakePattern(db, Itemset::Single(item)));
  }
  Rng rng(3);
  std::vector<int64_t> seeds = pool.DrawSeeds(3, rng);
  EXPECT_EQ(seeds.size(), 3u);
  std::set<int64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 3u);
  EXPECT_EQ(pool.DrawSeeds(100, rng).size(), 5u);
}

TEST(PatternPoolTest, DuplicateHeavyInsertsMatchSetReference) {
  // Itemsets drawn from a small universe repeat constantly; the pool must
  // keep exactly the distinct ones, in first-insertion order, with the
  // first writer's pattern — through both Add and the pre-sized AddAll.
  Rng rng(41);
  PatternPool pool;
  std::set<Itemset> reference;
  std::vector<Itemset> first_seen;
  auto random_pattern = [&rng](int64_t tag) {
    std::vector<ItemId> items;
    const int64_t count = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < count; ++i) {
      items.push_back(static_cast<ItemId>(rng.UniformInt(0, 11) * 37));
    }
    Pattern pattern;
    pattern.items = Itemset::FromUnsorted(std::move(items));
    pattern.support = tag;  // identifies which insert won
    return pattern;
  };
  std::vector<int64_t> winning_tag;
  int64_t tag = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<Pattern> batch;
    for (int i = 0; i < 100; ++i) batch.push_back(random_pattern(tag++));
    int64_t expected_added = 0;
    for (const Pattern& pattern : batch) {
      if (reference.insert(pattern.items).second) {
        first_seen.push_back(pattern.items);
        winning_tag.push_back(pattern.support);
        ++expected_added;
      }
    }
    if (round % 2 == 0) {
      EXPECT_EQ(pool.AddAll(std::move(batch)), expected_added);
    } else {
      for (Pattern& pattern : batch) pool.Add(std::move(pattern));
    }
    for (int i = 0; i < 50; ++i) {
      Pattern probe = random_pattern(-1);
      const bool fresh = reference.insert(probe.items).second;
      EXPECT_EQ(pool.Add(probe), fresh) << probe.items.ToString();
      if (fresh) {
        first_seen.push_back(probe.items);
        winning_tag.push_back(-1);
      }
    }
  }
  ASSERT_EQ(pool.size(), static_cast<int64_t>(reference.size()));
  for (int64_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.pattern(i).items, first_seen[static_cast<size_t>(i)]);
    EXPECT_EQ(pool.pattern(i).support, winning_tag[static_cast<size_t>(i)]);
    EXPECT_TRUE(pool.Contains(pool.pattern(i).items));
  }
  EXPECT_FALSE(pool.Contains(Itemset({1})));
  EXPECT_FALSE(pool.Contains(Itemset()));
}

TEST(PatternPoolTest, ContainsAfterMoveAssignment) {
  TransactionDatabase db = MakePaperFigure3();
  PatternPool source;
  for (ItemId item = 0; item < 5; ++item) {
    source.Add(MakePattern(db, Itemset::Single(item)));
  }
  PatternPool pool;
  EXPECT_FALSE(pool.Contains(Itemset({0})));
  pool.Add(MakePattern(db, Itemset({0, 1})));
  pool = std::move(source);
  EXPECT_EQ(pool.size(), 5);
  for (ItemId item = 0; item < 5; ++item) {
    EXPECT_TRUE(pool.Contains(Itemset::Single(item)));
  }
  EXPECT_FALSE(pool.Contains(Itemset({0, 1})));
  EXPECT_FALSE(pool.Add(MakePattern(db, Itemset({3}))));
  EXPECT_TRUE(pool.Add(MakePattern(db, Itemset({0, 1}))));
  EXPECT_TRUE(pool.Contains(Itemset({0, 1})));
}

// --- FuseOnce -------------------------------------------------------------

TEST(FuseOnceTest, SeedAloneWhenBallIsSingleton) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0}))};
  FusionOutcome outcome = FuseOnce(pool, {0}, 0, 100, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({0}));
  EXPECT_EQ(outcome.merged_count, 1);
}

TEST(FuseOnceTest, MergesCompatibleCorePatterns) {
  TransactionDatabase db = MakePaperFigure3();
  // ab (200) and ce (100) are both cores of abcef; fusing them yields
  // abce with support 100 ≥ τ·200.
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0, 1})),
                               MakePattern(db, Itemset({2, 3}))};
  FusionOutcome outcome = FuseOnce(pool, {0, 1}, 0, 100, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({0, 1, 2, 3}));
  EXPECT_EQ(outcome.fused.support, 100);
  EXPECT_EQ(outcome.merged_count, 2);
}

TEST(FuseOnceTest, RejectsMergeBreakingFrequency) {
  LabeledDatabase labeled = MakeDiagPlus(10, 5);
  // Diag item {0} and colossal item {10} have disjoint support sets: the
  // merge would have support 0 < min_support.
  std::vector<Pattern> pool = {MakePattern(labeled.db, Itemset({0})),
                               MakePattern(labeled.db, Itemset({10}))};
  FusionOutcome outcome = FuseOnce(pool, {0, 1}, 0, 5, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({0}));
  EXPECT_EQ(outcome.merged_count, 1);
}

TEST(FuseOnceTest, RejectsMergeBreakingTauCoreInvariant) {
  TransactionDatabase db = MakePaperFigure3();
  // Seed (ce): support 100. Candidate (a): support 300. Merged support
  // would be 100 < τ·300 = 150 at τ = 0.5: the member (a) would not be a
  // τ-core of the result, so the merge must be refused.
  std::vector<Pattern> pool = {MakePattern(db, Itemset({2, 3})),
                               MakePattern(db, Itemset({0}))};
  FusionOutcome outcome = FuseOnce(pool, {0, 1}, 0, 50, 0.5);
  EXPECT_EQ(outcome.fused.items, Itemset({2, 3}));
  // With τ = 0.3 the same merge passes (100 ≥ 0.3·300).
  outcome = FuseOnce(pool, {0, 1}, 0, 50, 0.3);
  EXPECT_EQ(outcome.fused.items, Itemset({0, 2, 3}));
}

TEST(FuseOnceTest, ResultSatisfiesTauCoreInvariantForAllMerged) {
  // Property: every merged member must be a τ-core of the fused result.
  LabeledDatabase labeled = MakeDiagPlus(12, 6);
  std::vector<Pattern> pool;
  for (ItemId item = 0; item < labeled.db.num_items(); ++item) {
    Pattern p = MakePattern(labeled.db, Itemset::Single(item));
    if (p.support >= 6) pool.push_back(std::move(p));
  }
  std::vector<int64_t> order;
  for (size_t i = 0; i < pool.size(); ++i) {
    order.push_back(static_cast<int64_t>(i));
  }
  const double tau = 0.5;
  FusionOutcome outcome = FuseOnce(pool, order, 0, 6, tau);
  for (int64_t index : order) {
    const Pattern& member = pool[static_cast<size_t>(index)];
    if (member.items.IsSubsetOf(outcome.fused.items)) {
      EXPECT_GE(static_cast<double>(outcome.fused.support) + 1e-9,
                tau * static_cast<double>(member.support))
          << member.items.ToString();
    }
  }
}

// --- Production primitives vs. the references --------------------------------

TEST(FusionPrimitivesDiffTest, FuseOnceMatchesReferenceOnRandomPools) {
  const int64_t kBits[] = {1, 37, 64, 130};
  const double kTaus[] = {0.25, 0.5, 0.75, 1.0};
  const int kMaxMerges[] = {0, 2, 3, 16};
  const int kMaxItems[] = {0, 2, 4, 7};
  int64_t multi_merges = 0;
  int64_t sparse_merges = 0;
  int64_t capped = 0;
  for (uint64_t trial = 0; trial < 400; ++trial) {
    Rng rng(trial + 1);
    std::vector<Pattern> pool = RandomPool(rng, kBits[trial % 4], 40);
    std::vector<int64_t> order;
    for (size_t i = 0; i < pool.size(); ++i) {
      order.push_back(static_cast<int64_t>(i));
    }
    rng.Shuffle(order);
    const int64_t seed_index =
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1);
    // 0 lets empty support sets merge; higher thresholds reject more.
    const int64_t min_support = rng.UniformInt(0, 3);
    const double tau = kTaus[rng.UniformInt(0, 3)];
    const int max_merges = kMaxMerges[rng.UniformInt(0, 3)];
    const int max_items = kMaxItems[rng.UniformInt(0, 3)];
    const FusionOutcome want = ReferenceFuseOnce(
        pool, order, seed_index, min_support, tau, max_merges, max_items);
    const FusionOutcome got = FuseOnce(pool, order, seed_index, min_support,
                                       tau, max_merges, nullptr, max_items);
    ASSERT_EQ(got.fused, want.fused) << "trial " << trial;
    ASSERT_EQ(got.merged_count, want.merged_count) << "trial " << trial;
    multi_merges += want.merged_count >= 3;
    sparse_merges += want.fused.items.Contains(70000) &&
                     !pool[static_cast<size_t>(seed_index)].items.Contains(
                         70000);
    if (max_items != 0) {
      capped += ReferenceFuseOnce(pool, order, seed_index, min_support, tau,
                                  max_merges, 0)
                    .fused.size() > max_items;
    }
  }
  // The trials must reach the interesting branches, not just seed-only
  // outcomes: several merges, a merged far-away item, a binding cap.
  EXPECT_GT(multi_merges, 20);
  EXPECT_GT(sparse_merges, 5);
  EXPECT_GT(capped, 5);
}

TEST(FusionPrimitivesDiffTest, FuseOnceMatchesReferenceOnMinedBalls) {
  LabeledDatabase labeled = MakeDiagPlus(16, 8);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  ASSERT_TRUE(pool.ok());
  Rng rng(5);
  for (size_t seed = 0; seed < pool->size(); seed += 7) {
    std::vector<int64_t> ball =
        ReferenceBallQuery(*pool, (*pool)[seed], BallRadius(0.5));
    rng.Shuffle(ball);
    for (int max_merges : {0, 4}) {
      for (int max_items : {0, 5}) {
        const int64_t seed_index = static_cast<int64_t>(seed);
        const FusionOutcome want =
            ReferenceFuseOnce(*pool, ball, seed_index,
                              labeled.min_support_count, 0.5, max_merges,
                              max_items);
        const FusionOutcome got =
            FuseOnce(*pool, ball, seed_index, labeled.min_support_count, 0.5,
                     max_merges, nullptr, max_items);
        ASSERT_EQ(got.fused, want.fused) << "seed " << seed;
        ASSERT_EQ(got.merged_count, want.merged_count) << "seed " << seed;
      }
    }
  }
}

TEST(FusionPrimitivesDiffTest, BallQueryMatchesReferenceOnRandomPools) {
  const int64_t kBits[] = {1, 37, 64, 130};
  const double kRadii[] = {0.0, BallRadius(0.9), 0.5, BallRadius(0.5),
                           BallRadius(0.25), 1.0 - 1e-6, 1.0};
  int64_t disjoint_kept = 0;
  for (uint64_t trial = 0; trial < 300; ++trial) {
    Rng rng(trial + 1000);
    const int64_t num_bits = kBits[trial % 4];
    const std::vector<Pattern> pool = RandomPool(rng, num_bits, 50);
    // Centers: pool members (empty and all-set ones included) and
    // off-pool empty / all-set support sets.
    Pattern center;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        center = PatternOf(Itemset({9}), Bitvector(num_bits));
        break;
      case 1:
        center = PatternOf(Itemset({9}), Bitvector::AllSet(num_bits));
        break;
      default:
        center = pool[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    }
    for (double radius : kRadii) {
      const std::vector<int64_t> want =
          ReferenceBallQuery(pool, center, radius);
      ASSERT_EQ(BallQuery(pool, center, radius), want)
          << "trial " << trial << " radius " << radius;
      if (radius == 1.0 && center.support > 0) {
        for (int64_t index : want) {
          const Pattern& member = pool[static_cast<size_t>(index)];
          disjoint_kept += member.support > 0 &&
                           Bitvector::AndNone(member.support_set,
                                              center.support_set);
        }
      }
    }
  }
  EXPECT_GT(disjoint_kept, 10);
}

TEST(FusionPrimitivesDiffTest, BallQueryMatchesReferenceAtDiagBoundary) {
  // Sliding 20-item windows over Diag_40: windows offset by 10 sit at
  // distance exactly 2/3 = r(0.5), the boundary the epsilon must keep.
  TransactionDatabase db = MakeDiag(40);
  std::vector<Pattern> pool;
  for (ItemId start = 0; start <= 20; ++start) {
    std::vector<ItemId> items;
    for (ItemId i = start; i < start + 20; ++i) items.push_back(i);
    pool.push_back(MakePattern(db, Itemset::FromSorted(std::move(items))));
  }
  for (const Pattern& center : pool) {
    const std::vector<int64_t> ball = BallQuery(pool, center, BallRadius(0.5));
    EXPECT_EQ(ball, ReferenceBallQuery(pool, center, BallRadius(0.5)));
  }
  EXPECT_NEAR(PatternDistance(pool[0], pool[10]), 2.0 / 3.0, 1e-12);
  const std::vector<int64_t> ball = BallQuery(pool, pool[0], BallRadius(0.5));
  EXPECT_EQ(ball.back(), 10);

  // At τ = 0.75 the boundary pair |∩| = 3, |∪| = 5 computes one ulp
  // above r(0.75); only the epsilon keeps it.
  const std::vector<Pattern> pair = {
      PatternOf(Itemset({0}), Bitvector::FromIndices(8, {0, 1, 2, 3})),
      PatternOf(Itemset({1}), Bitvector::FromIndices(8, {0, 1, 2, 4}))};
  EXPECT_GT(PatternDistance(pair[0], pair[1]), BallRadius(0.75));
  EXPECT_EQ(BallQuery(pair, pair[0], BallRadius(0.75)),
            (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(ReferenceBallQuery(pair, pair[0], BallRadius(0.75)),
            (std::vector<int64_t>{0, 1}));
}

// --- RunPatternFusion ------------------------------------------------------

TEST(PatternFusionTest, ValidatesOptions) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0}))};
  PatternFusionOptions options;
  options.min_support_count = 0;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.min_support_count = 100;
  options.tau = 0.0;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.tau = 1.5;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.tau = 0.5;
  options.k = 0;
  EXPECT_FALSE(RunPatternFusion(db, pool, options).ok());
  options.k = 10;
  EXPECT_FALSE(RunPatternFusion(db, {}, options).ok());
}

TEST(PatternFusionTest, RejectsInfrequentPoolPatterns) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0, 1, 2, 3, 4}))};
  PatternFusionOptions options;
  options.min_support_count = 200;  // abcef has support 100
  StatusOr<PatternFusionResult> result = RunPatternFusion(db, pool, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PatternFusionTest, RejectsSupportDisagreeingWithSupportSet) {
  // Ball distances take |D_β| from the held support, so a pool pattern
  // whose support is not its support set's popcount is refused up front.
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0})),
                               MakePattern(db, Itemset({1}))};
  pool[1].support += 1;
  PatternFusionOptions options;
  options.min_support_count = 100;
  StatusOr<PatternFusionResult> result = RunPatternFusion(db, pool, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PatternFusionTest, SmallPoolReturnsImmediately) {
  TransactionDatabase db = MakePaperFigure3();
  std::vector<Pattern> pool = {MakePattern(db, Itemset({0})),
                               MakePattern(db, Itemset({1}))};
  PatternFusionOptions options;
  options.min_support_count = 100;
  options.k = 10;
  StatusOr<PatternFusionResult> result = RunPatternFusion(db, pool, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_TRUE(result->iterations.empty());
  EXPECT_EQ(result->patterns.size(), 2u);
}

TEST(PatternFusionTest, RecoversAbcefFromFigure3) {
  TransactionDatabase db = MakePaperFigure3();
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(db, 100, 2);
  ASSERT_TRUE(pool.ok());
  // 5 frequent items + 10 frequent pairs.
  EXPECT_EQ(pool->size(), 15u);

  PatternFusionOptions options;
  options.min_support_count = 100;
  options.tau = 0.5;
  options.k = 5;
  options.seed = 11;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  bool found_abcef = false;
  for (const Pattern& pattern : result->patterns) {
    if (pattern.items == Itemset({0, 1, 2, 3, 4})) found_abcef = true;
    // Everything returned must be frequent.
    EXPECT_GE(pattern.support, 100);
    EXPECT_EQ(pattern.support, db.Support(pattern.items));
  }
  EXPECT_TRUE(found_abcef);
}

TEST(PatternFusionTest, FindsColossalPatternInDiagPlus) {
  LabeledDatabase labeled = MakeDiagPlus(40, 20);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  ASSERT_TRUE(pool.ok());
  // 40 diag items + C(40,2) diag pairs + 39 colossal items + C(39,2)
  // colossal pairs = 40 + 780 + 39 + 741 = 1600.
  EXPECT_EQ(pool->size(), 1600u);

  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.tau = 0.5;
  options.k = 100;
  options.seed = 7;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(labeled.db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  bool found_colossal = false;
  for (const Pattern& pattern : result->patterns) {
    if (pattern.items == labeled.planted[0]) found_colossal = true;
  }
  EXPECT_TRUE(found_colossal);
  // The largest pattern in the result must be the size-39 colossal one —
  // mid-size diag fusions stop at size 20.
  EXPECT_EQ(result->patterns[0].size(), 39);
}

TEST(PatternFusionTest, DiagFusionsReachExactlySupportBoundary) {
  // On pure Diag_n (no colossal block), fused patterns grow until their
  // support hits the threshold: size n/2 patterns with support n/2.
  TransactionDatabase db = MakeDiag(20);
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(db, 10, 2);
  ASSERT_TRUE(pool.ok());
  PatternFusionOptions options;
  options.min_support_count = 10;
  options.tau = 0.5;
  options.k = 20;
  options.seed = 13;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  for (const Pattern& pattern : result->patterns) {
    EXPECT_GE(pattern.support, 10);
    EXPECT_LE(pattern.size(), 10);
  }
  // The fusion should push most survivors to the frontier size n/2.
  EXPECT_EQ(result->patterns[0].size(), 10);
}

TEST(PatternFusionTest, Lemma5MinSizeNeverDecreases) {
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, labeled.min_support_count, 1);
  ASSERT_TRUE(pool.ok());
  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.k = 5;  // small K forces several iterations
  options.seed = 23;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(labeled.db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  int previous = 1;
  for (const FusionIterationStats& stats : result->iterations) {
    EXPECT_GE(stats.min_pattern_size, previous);
    previous = stats.min_pattern_size;
  }
}

TEST(PatternFusionTest, DeterministicForFixedSeed) {
  LabeledDatabase labeled = MakeDiagPlus(20, 10);
  StatusOr<std::vector<Pattern>> pool_a =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  StatusOr<std::vector<Pattern>> pool_b =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  ASSERT_TRUE(pool_a.ok());
  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.k = 30;
  options.seed = 99;
  StatusOr<PatternFusionResult> a =
      RunPatternFusion(labeled.db, *std::move(pool_a), options);
  StatusOr<PatternFusionResult> b =
      RunPatternFusion(labeled.db, *std::move(pool_b), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->patterns.size(), b->patterns.size());
  for (size_t i = 0; i < a->patterns.size(); ++i) {
    EXPECT_EQ(a->patterns[i].items, b->patterns[i].items);
  }
  // A different seed should explore differently (not guaranteed in
  // theory, overwhelmingly likely here).
  options.seed = 100;
  StatusOr<std::vector<Pattern>> pool_c =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  StatusOr<PatternFusionResult> c =
      RunPatternFusion(labeled.db, *std::move(pool_c), options);
  ASSERT_TRUE(c.ok());
  bool any_difference = a->patterns.size() != c->patterns.size();
  if (!any_difference) {
    for (size_t i = 0; i < a->patterns.size(); ++i) {
      if (!(a->patterns[i].items == c->patterns[i].items)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(PatternFusionTest, AllReturnedPatternsAreFrequentAndConsistent) {
  LabeledDatabase labeled = MakeProgramTraceLike(1);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, labeled.min_support_count, 2);
  ASSERT_TRUE(pool.ok());
  PatternFusionOptions options;
  options.min_support_count = labeled.min_support_count;
  options.tau = 0.25;
  options.k = 40;
  options.seed = 3;
  StatusOr<PatternFusionResult> result =
      RunPatternFusion(labeled.db, *std::move(pool), options);
  ASSERT_TRUE(result.ok());
  for (const Pattern& pattern : result->patterns) {
    EXPECT_GE(pattern.support, labeled.min_support_count);
    EXPECT_EQ(pattern.support, labeled.db.Support(pattern.items));
    EXPECT_EQ(pattern.support_set.Count(), pattern.support);
  }
}

TEST(BuildInitialPoolTest, AprioriAndEclatPoolsAreIdentical) {
  LabeledDatabase labeled = MakeDiagPlus(16, 8);
  StatusOr<std::vector<Pattern>> apriori = BuildInitialPool(
      labeled.db, labeled.min_support_count, 3, PoolMiner::kApriori);
  StatusOr<std::vector<Pattern>> eclat = BuildInitialPool(
      labeled.db, labeled.min_support_count, 3, PoolMiner::kEclat);
  ASSERT_TRUE(apriori.ok());
  ASSERT_TRUE(eclat.ok());
  auto key = [](const Pattern& pattern) { return pattern.items; };
  std::vector<Itemset> a;
  std::vector<Itemset> b;
  for (const Pattern& pattern : *apriori) a.push_back(key(pattern));
  for (const Pattern& pattern : *eclat) b.push_back(key(pattern));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// BuildInitialPool hands over the support sets the miner computed. The
// pool must equal the one re-derived from the database — the miner's
// itemsets in (size, lexicographic) order, each with db.SupportSet —
// for either miner, any thread count, arena or heap, with or without a
// vocabulary constraint.
TEST(BuildInitialPoolTest, HandedOverPoolEqualsTheRederivedOne) {
  RandomDatabaseOptions random;
  random.num_transactions = 80;
  random.num_items = 14;
  random.density = 0.4;
  random.seed = 11;
  const TransactionDatabase db = MakeRandomDatabase(random);
  constexpr int64_t kMinSupport = 5;
  constexpr int kMaxSize = 3;
  MiningConstraints include_only;
  include_only.include = {0, 2, 3, 5, 8, 9, 11, 13};
  MiningConstraints exclude_only;
  exclude_only.exclude = {1, 4, 7};

  for (PoolMiner miner : {PoolMiner::kApriori, PoolMiner::kEclat}) {
    for (int threads : {1, 4}) {
      for (bool with_arena : {false, true}) {
        for (const MiningConstraints& constraints :
             {MiningConstraints(), include_only, exclude_only}) {
          MinerOptions options;
          options.min_support_count = kMinSupport;
          options.max_pattern_size = kMaxSize;
          options.num_threads = threads;
          options.constraints = constraints;
          StatusOr<MiningResult> mined = miner == PoolMiner::kApriori
                                             ? MineApriori(db, options)
                                             : MineEclat(db, options);
          ASSERT_TRUE(mined.ok());
          SortPatterns(&mined->patterns);
          const std::vector<Pattern> expected =
              MakePatterns(db, mined->patterns);

          Arena arena;
          StatusOr<std::vector<Pattern>> pool = BuildInitialPool(
              db, kMinSupport, kMaxSize, miner, threads,
              with_arena ? &arena : nullptr, constraints);
          ASSERT_TRUE(pool.ok()) << pool.status().ToString();
          const std::string where =
              std::string(miner == PoolMiner::kApriori ? "apriori" : "eclat") +
              " threads=" + std::to_string(threads) +
              " arena=" + std::to_string(with_arena) +
              " include=" + std::to_string(constraints.include.size()) +
              " exclude=" + std::to_string(constraints.exclude.size());
          // Every level is exercised, up to the size bound.
          ASSERT_FALSE(pool->empty()) << where;
          EXPECT_EQ(pool->back().size(), kMaxSize) << where;
          ASSERT_EQ(pool->size(), expected.size()) << where;
          for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_TRUE((*pool)[i] == expected[i])
                << where << " pattern " << i << " "
                << expected[i].items.ToString();
            EXPECT_EQ((*pool)[i].support_set.arena_backed(), with_arena)
                << where << " pattern " << i;
          }
        }
      }
    }
  }
}

TEST(BuildInitialPoolTest, FailsWhenNothingIsFrequent) {
  TransactionDatabase db = MakeDiag(6);
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(db, 6, 2);
  EXPECT_FALSE(pool.ok());
  EXPECT_EQ(pool.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BuildInitialPoolTest, RejectsBadBound) {
  TransactionDatabase db = MakeDiag(6);
  EXPECT_FALSE(BuildInitialPool(db, 3, 0).ok());
}

}  // namespace
}  // namespace colossal
