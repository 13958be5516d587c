#ifndef COLOSSAL_MINING_ECLAT_H_
#define COLOSSAL_MINING_ECLAT_H_

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
// A baseline miner: `colossal_cli mine --algo eclat` runs it, and it is
// the second leg of the miner cross-check (against Apriori and
// FP-growth). One tidset intersection = one node against
// options.max_nodes. Patterns come out in DFS preorder; the tidsets it
// intersects are arena-backed when options.arena is set.
StatusOr<MiningResult> MineEclat(const TransactionDatabase& db,
                                 const MinerOptions& options);

}  // namespace colossal

#endif  // COLOSSAL_MINING_ECLAT_H_
