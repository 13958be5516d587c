#ifndef COLOSSAL_CORE_PATTERN_FUSION_H_
#define COLOSSAL_CORE_PATTERN_FUSION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/pattern.h"
#include "data/transaction_database.h"
#include "mining/constraints.h"

namespace colossal {

// Pattern-Fusion's building blocks (paper §2.3 and §4): the initial
// pool miner and one fusion of a seed's ball. The iterative loop that
// drives them (Algorithms 1–2) is FuseColossalFromPool
// (core/colossal_miner.h).

// Pool trajectory of one fusion iteration, for benches/tests (e.g.,
// asserting Lemma 5's min-size monotonicity).
struct FusionIterationStats {
  int64_t pool_size = 0;
  int min_pattern_size = 0;
  int max_pattern_size = 0;
};

// Kept only because perfbench/probe.cc names it; Apriori builds every pool.
enum class PoolMiner {
  kApriori,
};

// Runs MineApriori — the one initial-pool miner — and hands over the
// patterns with the support sets the join computed for them, in (size,
// lexicographic) order (PoolOrderLess), the order Apriori emits.
// Support sets are arena-backed when options.arena is set. Unlike
// BuildInitialPool, an empty result is not an error: the sharded miner
// mines each shard with this, and a shard may hold no locally frequent
// pattern. `stats`, when given, receives the miner's MinerStats.
StatusOr<std::vector<Pattern>> MinePoolPatterns(const TransactionDatabase& db,
                                                const MinerOptions& options,
                                                MinerStats* stats = nullptr);

// Builds the initial pool (paper §2.3 phase 1; the paper allows "any
// existing efficient mining algorithm", and Apriori is the one used):
// the complete set of frequent patterns of size ≤ max_pattern_size,
// with the support sets the miner computed, in (size, lexicographic)
// order (see MinePoolPatterns). `miner` and `num_threads` are ignored
// (the pool is mined on the calling thread); they stay only because
// perfbench/probe.cc passes them.
// With an arena, the pool's support sets are arena-backed (the pool
// must then not outlive the arena; fusion copies its answer out, so
// this is safe for the MineColossal pipeline).
// `constraints` (assumed canonical) is forwarded into the miner: items
// outside the vocabulary are skipped before their tidsets are counted
// or materialized, so a constrained pool costs strictly less than
// filtering a complete one. Cardinality bounds are NOT applied here —
// max_len is expressed through max_pattern_size by the caller, and
// min_len must not prune the pool (small patterns are fusion's
// building blocks). Fails when no pattern is frequent. `stats`, when
// given, receives the miner's MinerStats.
StatusOr<std::vector<Pattern>> BuildInitialPool(
    const TransactionDatabase& db, int64_t min_support_count,
    int max_pattern_size, PoolMiner miner = PoolMiner::kApriori,
    int num_threads = 0, Arena* arena = nullptr,
    const MiningConstraints& constraints = MiningConstraints(),
    MinerStats* stats = nullptr);

// One fusion of a seed with its CoreList (the Fusion(α.CoreList) routine
// of Algorithm 2, one sampling pass): greedily merges ball members in the
// given order, accepting a member only when the merged support set keeps
// (a) frequency and (b) the τ-core invariant — every merged pattern,
// including the seed, must remain a τ-core of the running result.
// `max_merges` bounds how many members (seed included) may be fused;
// 0 means unbounded (merge to saturation). `max_items` bounds the item
// count of the fused pattern (0 = unbounded): a member whose union with
// the running result would exceed it is skipped before any support-set
// work. Exposed for unit testing.
// Returns the fused pattern and the number of ball members merged (≥ 1:
// the seed).
struct FusionOutcome {
  Pattern fused;
  int merged_count = 0;
};
// With an arena, the fused pattern's support set is arena-backed.
FusionOutcome FuseOnce(const std::vector<Pattern>& pool,
                       const std::vector<int64_t>& ball_order,
                       int64_t seed_index, int64_t min_support_count,
                       double tau, int max_merges = 0,
                       Arena* arena = nullptr, int max_items = 0);

}  // namespace colossal

#endif  // COLOSSAL_CORE_PATTERN_FUSION_H_
