#include "common/rng.h"

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace colossal {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
  Rng c(8);
  bool any_difference = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2.NextUint64() != c.NextUint64()) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(RngTest, MixSeedIsDeterministicAndStreamSensitive) {
  EXPECT_EQ(Rng::MixSeed(7, 0), Rng::MixSeed(7, 0));
  // Distinct streams (and distinct bases) must yield distinct seeds —
  // the fusion engine relies on this for independent per-seed-slot
  // randomness.
  std::set<uint64_t> derived;
  for (uint64_t stream = 0; stream < 256; ++stream) {
    derived.insert(Rng::MixSeed(7, stream));
  }
  EXPECT_EQ(derived.size(), 256u);
  EXPECT_NE(Rng::MixSeed(7, 3), Rng::MixSeed(8, 3));
  // Nested derivation (iteration, then slot) also stays collision-free
  // over a realistic grid.
  std::set<uint64_t> nested;
  for (uint64_t iteration = 0; iteration < 50; ++iteration) {
    for (uint64_t slot = 0; slot < 100; ++slot) {
      nested.insert(Rng::MixSeed(Rng::MixSeed(1, iteration), slot));
    }
  }
  EXPECT_EQ(nested.size(), 5000u);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t value = rng.UniformInt(-5, 9);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 9);
  }
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInHalfOpenUnit) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.UniformDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(17);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(19);
  std::vector<int> values(50);
  for (int i = 0; i < 50; ++i) values[static_cast<size_t>(i)] = i;
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, values);
}

TEST(RngTest, WeightedIndexRespectsZeroWeights) {
  Rng rng(23);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1);
  }
}

TEST(RngTest, WeightedIndexRoughlyProportional) {
  Rng rng(29);
  const std::vector<double> weights = {1.0, 3.0};
  int heavy = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.WeightedIndex(weights) == 1) ++heavy;
  }
  EXPECT_NEAR(static_cast<double>(heavy) / trials, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<int64_t> sample = rng.SampleWithoutReplacement(20, 8);
    EXPECT_EQ(sample.size(), 8u);
    std::set<int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (int64_t value : sample) {
      EXPECT_GE(value, 0);
      EXPECT_LT(value, 20);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullPopulation) {
  Rng rng(37);
  const std::vector<int64_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(RngTest, SampleWithoutReplacementIsUnbiasedish) {
  // Every element of a population of 10 should be picked ≈ uniformly
  // when sampling 3 of 10 many times.
  Rng rng(41);
  std::vector<int> counts(10, 0);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    for (int64_t index : rng.SampleWithoutReplacement(10, 3)) {
      ++counts[static_cast<size_t>(index)];
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

// Today's draws, pinned. mt19937_64's sequence is fixed by the C++
// standard, but the distributions behind UniformInt, UniformDouble and
// Bernoulli are the standard library's own, and every mined answer,
// golden digest and generated dataset rests on them. A library whose
// algorithms differ fails here, by name, before any golden output does.
TEST(RngTest, DrawsMatchThePinnedSequence) {
  struct Range {
    int64_t lo;
    int64_t hi;
    std::vector<int64_t> draws;
  };
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const Range ranges[] = {
      {0, 9, {7, 6, 7, 1, 9, 0}},
      {-5, 9, {6, 4, 6, -3, 8, -4}},
      {0, 1000000, {755156, 639032, 752145, 136272, 903269, 94068}},
      // 2^63 + 1 values: the fourth draw follows a rejected one, so the
      // rejection step is pinned too.
      {-(int64_t{1} << 62),
       int64_t{1} << 62,
       {2353394407701672299, 1282338270324359508, 2325628993806482821,
        687789657691918864, -1012072483992125776, -4497475113429590107}},
      {0,
       kMax,
       {6965080426129060203, 5894024288751747412, 6937315012233870725,
        1256893659602577831, 8331185726714219690, 867627036267489214}},
      {kMin,
       kMax,
       {4706788815403344598, 2564676540648719016, 4651257987612965642,
        -6709584717649620146, 7438999416573663573, -7488117964319797380}},
  };
  for (const Range& range : ranges) {
    Rng rng(42);
    for (size_t i = 0; i < range.draws.size(); ++i) {
      EXPECT_EQ(rng.UniformInt(range.lo, range.hi), range.draws[i])
          << "UniformInt(" << range.lo << ", " << range.hi << ") draw " << i;
    }
  }

  Rng doubles(42);
  for (double expected :
       {0x1.82a3befaddcbcp-1, 0x1.472f1f73724ap-1, 0x1.81192cfe1cbcfp-1,
        0x1.171621fc50d6ap-3, 0x1.ce79451c9a6c3p-1, 0x1.814dc629c7f4fp-4}) {
    EXPECT_EQ(doubles.UniformDouble(), expected);
  }

  Rng coins(42);
  std::vector<int> flips;
  for (int i = 0; i < 16; ++i) flips.push_back(coins.Bernoulli(0.3) ? 1 : 0);
  EXPECT_EQ(flips,
            (std::vector<int>{0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0}));

  Rng shuffler(42);
  std::vector<int> values = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffler.Shuffle(values);
  EXPECT_EQ(values, (std::vector<int>{3, 4, 1, 2, 9, 8, 0, 6, 5, 7}));
}

}  // namespace
}  // namespace colossal
