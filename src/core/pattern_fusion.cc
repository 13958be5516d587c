#include "core/pattern_fusion.h"

#include <algorithm>
#include <string>
#include <utility>

#include "mining/apriori.h"

namespace colossal {

FusionOutcome FuseOnce(const std::vector<Pattern>& pool,
                       const std::vector<int64_t>& ball_order,
                       int64_t seed_index, int64_t min_support_count,
                       double tau, int max_merges, Arena* arena,
                       int max_items) {
  const Pattern& seed = pool[static_cast<size_t>(seed_index)];
  FusionOutcome outcome;
  outcome.fused.items = seed.items;
  outcome.fused.support_set = Bitvector(seed.support_set, arena);
  outcome.fused.support = seed.support;
  outcome.merged_count = 1;

  // Invariant: every merged pattern β (including the seed) must be a
  // τ-core of the running fusion R, i.e. |D_R| ≥ τ·|D_β|. D_R only
  // shrinks, so it suffices to keep |D_R| ≥ τ·max merged support.
  int64_t max_merged_support = seed.support;

  // Item bitmap of R, so |R ∩ β| costs O(|β|) bit tests instead of a
  // merge-walk over R's items (which grow to ~100 on colossal data,
  // against 1–2 items per initial-pool member). It covers R's largest
  // item and grows on merge; an id past its end is not in R, so sparse
  // ids cost nothing until they are merged.
  std::vector<uint64_t> fused_bits;
  const auto mark_fused = [&fused_bits](const Itemset& items) {
    if (items.empty()) return;
    const size_t words = items.items().back() / 64 + 1;
    if (fused_bits.size() < words) fused_bits.resize(words, 0);
    for (ItemId item : items) {
      fused_bits[item / 64] |= uint64_t{1} << (item % 64);
    }
  };
  mark_fused(seed.items);

  for (int64_t index : ball_order) {
    if (max_merges != 0 && outcome.merged_count >= max_merges) break;
    if (index == seed_index) continue;
    const Pattern& member = pool[static_cast<size_t>(index)];
    int common_items = 0;
    for (ItemId item : member.items) {
      const size_t word = item / 64;
      common_items += word < fused_bits.size() &&
                      ((fused_bits[word] >> (item % 64)) & 1) != 0;
    }
    if (common_items == member.size()) {
      // Already absorbed; merging would change nothing.
      continue;
    }
    // |R ∪ β| by inclusion–exclusion — rejected before any support-set
    // work, so an over-long merge costs no Bitvector traffic.
    if (max_items != 0 &&
        outcome.fused.size() + member.size() - common_items > max_items) {
      continue;
    }
    // Popcount the would-be intersection first; the merged support set
    // is only materialized (in place) once the merge is accepted.
    const int64_t merged_support =
        Bitvector::AndCount(outcome.fused.support_set, member.support_set);
    if (merged_support < min_support_count) continue;
    const double needed =
        tau * static_cast<double>(
                  std::max(max_merged_support, member.support)) -
        1e-12;
    if (static_cast<double>(merged_support) < needed) continue;

    outcome.fused.items = Union(outcome.fused.items, member.items);
    mark_fused(member.items);
    outcome.fused.support_set.AndWith(member.support_set);
    outcome.fused.support = merged_support;
    max_merged_support = std::max(max_merged_support, member.support);
    ++outcome.merged_count;
  }
  return outcome;
}

StatusOr<std::vector<Pattern>> MinePoolPatterns(const TransactionDatabase& db,
                                                const MinerOptions& options,
                                                MinerStats* stats) {
  std::vector<Bitvector> support_sets;
  StatusOr<MiningResult> mined = MineApriori(db, options, &support_sets);
  if (!mined.ok()) return mined.status();
  if (stats != nullptr) *stats = mined->stats;
  std::vector<Pattern> patterns(mined->patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    patterns[i].items = std::move(mined->patterns[i].items);
    patterns[i].support_set = std::move(support_sets[i]);
    patterns[i].support = mined->patterns[i].support;
  }
  return patterns;
}

StatusOr<std::vector<Pattern>> BuildInitialPool(
    const TransactionDatabase& db, int64_t min_support_count,
    int max_pattern_size, PoolMiner /*miner*/, int /*num_threads*/,
    Arena* arena, const MiningConstraints& constraints, MinerStats* stats) {
  if (max_pattern_size < 1) {
    return Status::InvalidArgument("max_pattern_size must be >= 1");
  }
  MinerOptions miner_options;
  miner_options.min_support_count = min_support_count;
  miner_options.max_pattern_size = max_pattern_size;
  miner_options.arena = arena;
  miner_options.constraints = constraints;
  StatusOr<std::vector<Pattern>> pool =
      MinePoolPatterns(db, miner_options, stats);
  if (pool.ok() && pool->empty()) {
    return Status::FailedPrecondition(
        "no frequent patterns at min_support_count " +
        std::to_string(min_support_count));
  }
  return pool;
}

}  // namespace colossal
