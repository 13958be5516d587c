#ifndef COLOSSAL_MINING_MINER_H_
#define COLOSSAL_MINING_MINER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/itemset.h"
#include "common/status.h"
#include "data/transaction_database.h"
#include "mining/constraints.h"

namespace colossal {

class Arena;

// Types shared by all complete miners (Apriori, Eclat, FP-growth, the
// closed/maximal/top-k miners). These play two roles in the reproduction:
// they are the baselines Pattern-Fusion is compared against in Figures 6
// and 10, and bounded-size complete mining supplies Pattern-Fusion's
// initial pool (paper §2.3 step 1).

// A frequent itemset together with its absolute support.
struct FrequentItemset {
  Itemset items;
  int64_t support = 0;

  friend bool operator==(const FrequentItemset& a, const FrequentItemset& b) {
    return a.support == b.support && a.items == b.items;
  }
};

// Common knobs. Thresholds are absolute counts; use
// TransactionDatabase::MinSupportCount to convert a fraction.
struct MinerOptions {
  // Minimum absolute support (≥ 1).
  int64_t min_support_count = 1;

  // Upper bound on pattern cardinality; 0 means unbounded. Bounded runs
  // produce Pattern-Fusion initial pools ("complete set of frequent
  // patterns up to a small size, e.g., 3").
  int max_pattern_size = 0;

  // Work budget: maximum number of search-tree nodes a miner may expand;
  // 0 means unbounded. When the budget trips, the miner stops and flags
  // `budget_exceeded` — this is how benches reproduce the paper's
  // "did not finish within 10 hours" rows without hanging.
  int64_t max_nodes = 0;

  // Item vocabulary constraints, honoured by MineApriori and MineEclat:
  // a disallowed item is skipped at the level-1 / root stage — before
  // it counts against `max_nodes`, before its tidset is popcounted, and
  // before any Bitvector is copied — and deeper candidates inherit the
  // pruning because they extend level-1 survivors. Lists must be in
  // canonical (sorted) form; CanonicalizeConstraints does that. The
  // cardinality bounds are NOT interpreted here (max_pattern_size
  // already expresses the upper bound; min_len is a result-shaping
  // concern of the colossal pipeline).
  MiningConstraints constraints;

  // Worker threads, honoured by MineEclat only (root branches sharded
  // across workers); MineApriori and the other miners run serially.
  // 0 = auto (hardware_concurrency); negative values are rejected by
  // every miner. Output patterns and nodes_expanded are identical for
  // any value. Budgeted runs (max_nodes != 0) fall back to serial so the
  // truncation point stays deterministic.
  int num_threads = 0;

  // Optional bump arena for the support sets MineApriori and MineEclat
  // compute (candidate sets and tidset intersections; the other miners
  // ignore it). The caller owns lifetime: a MiningResult never
  // references it, but the support sets MineApriori hands over through
  // its `support_sets` out-parameter live in it, so the arena must
  // outlive them. Purely a performance knob — output is byte-identical
  // with or without it — and deliberately not part of any request
  // canonicalization or cache key.
  Arena* arena = nullptr;
};

// Execution metadata reported with every mining run.
struct MinerStats {
  int64_t nodes_expanded = 0;
  bool budget_exceeded = false;
};

// The outcome of a complete-mining run. When `stats.budget_exceeded` is
// true, `patterns` holds whatever was found before the budget tripped and
// must not be treated as the complete answer.
struct MiningResult {
  std::vector<FrequentItemset> patterns;
  MinerStats stats;
};

// Validates option/database combinations shared by all miners.
Status ValidateMinerOptions(const TransactionDatabase& db,
                            const MinerOptions& options);

// Sorts patterns for deterministic comparison: by size, then
// lexicographically. Support is determined by the itemset, so this is a
// total order on well-formed results.
void SortPatterns(std::vector<FrequentItemset>* patterns);

// Convenience: true iff `result` contains `items` (any support).
bool ContainsPattern(const MiningResult& result, const Itemset& items);

}  // namespace colossal

#endif  // COLOSSAL_MINING_MINER_H_
