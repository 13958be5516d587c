#ifndef COLOSSAL_MINING_ECLAT_H_
#define COLOSSAL_MINING_ECLAT_H_

#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "data/transaction_database.h"
#include "mining/miner.h"

namespace colossal {

// Depth-first complete frequent-itemset miner over the vertical layout
// (Zaki's Eclat family). Each search node extends a prefix itemset with a
// larger item, intersecting tidsets; the downward-closure property prunes
// infrequent extensions. A node at max_pattern_size is emitted but never
// expanded.
//
// Serves as the second leg of the miner cross-check (against Apriori and
// FP-growth) and as an alternative initial-pool generator for
// Pattern-Fusion. One tidset intersection = one node against
// options.max_nodes.
//
// Patterns come out in DFS preorder. When `support_sets` is non-null it
// receives each pattern's support set, index-aligned with
// result.patterns: the tidsets the DFS intersected, handed over once the
// node's subtree is done (arena-backed when options.arena is set).
StatusOr<MiningResult> MineEclat(
    const TransactionDatabase& db, const MinerOptions& options,
    std::vector<Bitvector>* support_sets = nullptr);

}  // namespace colossal

#endif  // COLOSSAL_MINING_ECLAT_H_
