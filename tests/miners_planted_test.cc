// Planted-pattern recovery properties for every complete miner: if a
// pattern is planted with support comfortably above the threshold, the
// complete miners must report it (frequent miners verbatim; closed
// miners its closure, which contains it; maximal miners some superset),
// across a grid of pattern sizes and noise levels.

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "mining/apriori.h"
#include "mining/closed_miner.h"
#include "mining/eclat.h"
#include "mining/fpgrowth.h"
#include "mining/maximal_miner.h"
#include "mining/topk_miner.h"

namespace colossal {
namespace {

struct PlantedCase {
  int pattern_size;
  double noise;
  uint64_t seed;
};

class PlantedMinerTest : public ::testing::TestWithParam<PlantedCase> {
 protected:
  void SetUp() override {
    const PlantedCase& config = GetParam();
    PlantedDatabaseOptions options;
    options.num_transactions = 120;
    options.num_items = 24;  // within the brute-force-sized domain
    options.noise_density = config.noise;
    options.seed = config.seed;
    std::vector<ItemId> items;
    for (int i = 0; i < config.pattern_size; ++i) {
      items.push_back(static_cast<ItemId>(10 + i));
    }
    planted_ = Itemset::FromUnsorted(items);
    options.patterns.push_back({planted_, 60});
    db_ = MakePlantedDatabase(options);
    min_support_ = 50;
  }

  TransactionDatabase db_;
  Itemset planted_;
  int64_t min_support_ = 0;
};

TEST_P(PlantedMinerTest, FrequentMinersReportThePlantedPattern) {
  MinerOptions options;
  options.min_support_count = min_support_;
  // Bound the size so the complete enumeration stays small even at high
  // noise; the planted pattern itself must still appear.
  options.max_pattern_size = planted_.size();

  for (const StatusOr<MiningResult>& result :
       {MineApriori(db_, options), MineEclat(db_, options),
        MineFpGrowth(db_, options)}) {
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(ContainsPattern(*result, planted_));
  }
}

TEST_P(PlantedMinerTest, ClosedMinerReportsAClosureContainingIt) {
  MinerOptions options;
  options.min_support_count = min_support_;
  StatusOr<MiningResult> result = MineClosed(db_, options);
  ASSERT_TRUE(result.ok());
  bool contained = false;
  for (const FrequentItemset& pattern : result->patterns) {
    if (planted_.IsSubsetOf(pattern.items)) contained = true;
  }
  EXPECT_TRUE(contained);
}

TEST_P(PlantedMinerTest, MaximalMinerReportsASupersetOfIt) {
  MinerOptions options;
  options.min_support_count = min_support_;
  StatusOr<MiningResult> result = MineMaximal(db_, options);
  ASSERT_TRUE(result.ok());
  bool contained = false;
  for (const FrequentItemset& pattern : result->patterns) {
    if (planted_.IsSubsetOf(pattern.items)) contained = true;
  }
  EXPECT_TRUE(contained);
}

TEST_P(PlantedMinerTest, TopKWithMatchingLengthFindsIt) {
  TopKOptions options;
  options.k = 5;
  options.min_pattern_size = planted_.size();
  options.min_support_count = min_support_;
  StatusOr<MiningResult> result = MineTopKClosed(db_, options);
  ASSERT_TRUE(result.ok());
  bool contained = false;
  for (const FrequentItemset& pattern : result->patterns) {
    if (planted_.IsSubsetOf(pattern.items)) contained = true;
  }
  EXPECT_TRUE(contained);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlantedMinerTest,
    ::testing::Values(PlantedCase{4, 0.02, 1}, PlantedCase{4, 0.10, 2},
                      PlantedCase{6, 0.05, 3}, PlantedCase{8, 0.02, 4},
                      PlantedCase{8, 0.10, 5}, PlantedCase{10, 0.05, 6}));

}  // namespace
}  // namespace colossal
