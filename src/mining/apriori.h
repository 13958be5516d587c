#ifndef COLOSSAL_MINING_APRIORI_H_
#define COLOSSAL_MINING_APRIORI_H_

#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "data/transaction_database.h"
#include "mining/miner.h"

namespace colossal {

// Breadth-first (level-wise) complete frequent-itemset miner in the style
// of Agrawal & Srikant's Apriori [VLDB'94], the first baseline family the
// paper discusses. Candidates of size k are generated by joining frequent
// (k−1)-itemsets sharing a (k−2)-prefix and pruned by the downward-closure
// property before support counting against the vertical index.
//
// In this library its main job is mining Pattern-Fusion *initial pools*:
// with max_pattern_size ∈ {2, 3} it enumerates the complete bounded answer
// in milliseconds even on the microarray stand-in. It is also one leg of
// the miner cross-check tests.
//
// Patterns come out in (size, lexicographic) order — the order
// SortPatterns imposes — so callers never need to re-sort them. When
// `support_sets` is non-null it receives each pattern's support set,
// index-aligned with result.patterns: the sets the level-wise join
// already computed, handed over instead of dropped (arena-backed when
// options.arena is set). Leave it null for baseline runs, where holding
// every level's sets would only cost memory.
//
// Each counted candidate costs one search node against options.max_nodes.
// The join runs on the calling thread; options.num_threads is ignored.
StatusOr<MiningResult> MineApriori(
    const TransactionDatabase& db, const MinerOptions& options,
    std::vector<Bitvector>* support_sets = nullptr);

}  // namespace colossal

#endif  // COLOSSAL_MINING_APRIORI_H_
