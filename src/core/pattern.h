#ifndef COLOSSAL_CORE_PATTERN_H_
#define COLOSSAL_CORE_PATTERN_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/itemset.h"
#include "data/transaction_database.h"
#include "mining/miner.h"

namespace colossal {

// A frequent pattern with its materialized support set D_α (paper §2.1).
// Pattern-Fusion keeps support sets materialized because its two inner
// primitives — the pattern-distance ball query (Definition 6) and the
// fusion merge (support of an itemset union = intersection of support
// sets, Lemma 1) — are pure bitset operations on them.
struct Pattern {
  Itemset items;
  Bitvector support_set;
  int64_t support = 0;

  int size() const { return items.size(); }

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.items == b.items && a.support_set == b.support_set &&
           a.support == b.support;
  }
};

// Initial-pool order: by size, then lexicographically — the order
// Apriori enumerates and SortPatterns imposes. The fusion engine is
// pool-order-sensitive (seed draws index the pool), so every initial
// pool, sharded or not, is kept in this order.
inline bool PoolOrderLess(const Pattern& a, const Pattern& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return a.items < b.items;
}

// Builds a Pattern by computing the support set of `items` against `db`.
// With an arena, the support set is arena-backed (mining temporaries
// only — the pattern must not outlive the arena).
Pattern MakePattern(const TransactionDatabase& db, Itemset items,
                    Arena* arena = nullptr);

// Converts a complete-miner result into patterns with support sets
// re-derived from `db`. The pool path takes the miners' own sets
// instead (MinePoolPatterns); this stays as the oracle tests check that
// hand-over against.
std::vector<Pattern> MakePatterns(const TransactionDatabase& db,
                                  const std::vector<FrequentItemset>& mined,
                                  Arena* arena = nullptr);

// Drops the support sets again (for reporting through MiningResult-shaped
// interfaces).
std::vector<FrequentItemset> ToFrequentItemsets(
    const std::vector<Pattern>& patterns);

}  // namespace colossal

#endif  // COLOSSAL_CORE_PATTERN_H_
