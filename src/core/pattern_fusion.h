#ifndef COLOSSAL_CORE_PATTERN_FUSION_H_
#define COLOSSAL_CORE_PATTERN_FUSION_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/pattern.h"
#include "core/pattern_pool.h"
#include "data/transaction_database.h"
#include "mining/constraints.h"

namespace colossal {

// The Pattern-Fusion mining model (paper §2.3 and §4, Algorithms 1–2).
//
// Given an initial pool — the complete set of frequent patterns up to a
// small size — the algorithm iterates:
//   1. draw K random seed patterns from the pool;
//   2. for each seed α, collect its CoreList: every pool pattern within
//      pattern distance r(τ) of α (by Theorem 2 this ball contains all
//      τ-core patterns, present in the pool, of any pattern α is a
//      τ-core of);
//   3. fuse each CoreList into super-patterns whose merged members are
//      all τ-core patterns of the result, retaining (when too many arise)
//      a sample weighted by fused-set size;
//   4. the fused super-patterns form the next pool.
// The loop ends when the pool holds at most K patterns (Algorithm 1's
// |S| > K condition) or after max_iterations.

struct PatternFusionOptions {
  // Absolute support threshold σ·|D| (≥ 1).
  int64_t min_support_count = 1;

  // Core ratio τ ∈ (0, 1] (Definition 3). Controls both the ball radius
  // r(τ) and the fusion invariant. Smaller τ lets fusion jump farther
  // down the pattern tree in one step but admits looser cores.
  double tau = 0.5;

  // K: seeds drawn per iteration, and the target answer-set size.
  int k = 100;

  // Safety bound on fusion iterations (the paper's loop provably makes
  // progress because support sets shrink, but adversarial pools can
  // plateau above K).
  int max_iterations = 50;

  // Independent shuffled greedy merges attempted per seed. Each attempt
  // can discover a different super-pattern when the seed's ball supports
  // several (the CoreList members are cores "of more than one pattern",
  // §4).
  int fusion_attempts_per_seed = 2;

  // At most this many distinct super-patterns are kept per seed; when
  // attempts produce more, retention samples them weighted by the number
  // of fused core patterns (the paper's size-weighted sampling
  // heuristic).
  int max_superpatterns_per_seed = 2;

  // The paper's Fusion(α.CoreList) fuses *subsets* of the CoreList, so a
  // seed can yield super-patterns of several depths, not only the
  // deepest reachable one. When true (default), the first attempt per
  // seed merges to saturation (so colossal ancestors stay reachable) and
  // subsequent attempts stop at a randomly drawn merge budget, emitting
  // intermediate super-patterns as well. When false every attempt
  // saturates — an ablation knob (see bench/ablation_fusion_depth).
  bool variable_merge_depth = true;

  // Upper bound on the item count of any fused pattern; 0 = unbounded.
  // A merge whose item union would exceed the bound is skipped (before
  // any support-set work), so a max_len-constrained request never
  // builds a pattern it would have to throw away. The initial pool
  // must already respect the bound (canonicalization caps the pool's
  // max pattern size at it).
  int max_pattern_items = 0;

  // RNG seed for the draws and shuffles; fixed seed ⇒ identical runs.
  uint64_t seed = 1;

  // Worker threads for the per-seed fusion work (ball query, shuffled
  // merges, retention sampling). 0 = auto (hardware_concurrency). The
  // result is bit-identical for every value, including 1: randomness is
  // derived per seed slot, and candidates merge in slot order.
  int num_threads = 0;

  // Optional bump arena for the engine's intra-run support sets (fused
  // candidates and the evolving pool). The arena must outlive the Run
  // call; the returned PatternFusionResult is always heap-backed (the
  // final pool is copied out, and copies detach by construction), so
  // results never dangle when the arena resets. Purely a performance
  // knob — output is byte-identical with or without it.
  Arena* arena = nullptr;
};

// Pool trajectory of one fusion iteration, for benches/tests (e.g.,
// asserting Lemma 5's min-size monotonicity).
struct FusionIterationStats {
  int64_t pool_size = 0;
  int min_pattern_size = 0;
  int max_pattern_size = 0;
};

struct PatternFusionResult {
  // The final pool: the approximation to the colossal patterns, sorted by
  // descending size (largest first), ties lexicographic.
  std::vector<Pattern> patterns;
  // Stats per executed iteration (after the new pool replaced the old).
  std::vector<FusionIterationStats> iterations;
  // True iff the loop ended because |pool| ≤ K (vs. hitting
  // max_iterations).
  bool converged = false;
};

// A candidate super-pattern produced by fusing one seed's ball, with the
// weight used by the retention sampling.
struct FusionCandidate {
  Pattern pattern;
  int merged_count = 0;
};

// The fusion pipeline, restructured around per-seed work units so one
// iteration's K seeds shard across a ThreadPool. Each seed slot gets its
// own Rng stream derived from (options.seed, iteration, slot), and slot
// results are merged into the next pool in slot order, so the mining
// output is identical for any num_threads.
class FusionEngine {
 public:
  // The engine never touches the database beyond its transaction count
  // (pool patterns carry materialized support sets), so it can also be
  // constructed from the count alone — the form the shard layer uses,
  // where no unsharded database ever exists in memory.
  FusionEngine(int64_t num_transactions, const PatternFusionOptions& options);
  FusionEngine(const TransactionDatabase& db,
               const PatternFusionOptions& options);

  FusionEngine(const FusionEngine&) = delete;
  FusionEngine& operator=(const FusionEngine&) = delete;

  // Runs iterative pattern fusion from the given initial pool. The pool
  // patterns must carry support sets consistent with the database and be
  // frequent at options.min_support_count. Fails on invalid options or
  // an empty pool.
  StatusOr<PatternFusionResult> Run(std::vector<Pattern> initial_pool);

 private:
  // One seed's work unit (Algorithm 2, lines 4–9): ball query, several
  // shuffled greedy fusions, per-seed dedup, weighted retention. Pure
  // with respect to shared state — reads the pool, draws only from the
  // slot's own rng — which is what makes seed slots safe to shard.
  std::vector<FusionCandidate> ProcessSeed(const PatternPool& pool,
                                           int64_t seed_index, double radius,
                                           Rng& rng) const;

  const int64_t num_transactions_;
  const PatternFusionOptions options_;
};

// Convenience wrapper preserving the original free-function API:
// constructs a FusionEngine and runs it.
StatusOr<PatternFusionResult> RunPatternFusion(
    const TransactionDatabase& db, std::vector<Pattern> initial_pool,
    const PatternFusionOptions& options);

// Which complete miner builds the initial pool. The paper allows "any
// existing efficient mining algorithm"; both choices produce the
// identical pool — MinePoolPatterns hands both over in (size,
// lexicographic) order, so downstream fusion output is byte-identical
// for either miner. They materialize the same support sets (every
// frequent pattern up to the bound, and nothing else); breadth-first
// Apriori prunes candidates by their subsets before counting them,
// while depth-first Eclat probes every right sibling of a node and then
// sorts its DFS order.
enum class PoolMiner {
  kApriori,
  kEclat,
};

// Runs the complete miner `miner` names — the one place a PoolMiner
// picks MineApriori or MineEclat — and hands over the patterns with the
// support sets the miner computed for them, in (size, lexicographic)
// order (PoolOrderLess): Apriori's output is already in that order, and
// Eclat's is sorted together with its sets. Support sets are
// arena-backed when options.arena is set. Unlike BuildInitialPool, an
// empty result is not an error: the sharded miner mines each shard with
// this, and a shard may hold no locally frequent pattern. `stats`, when
// given, receives the miner's MinerStats.
StatusOr<std::vector<Pattern>> MinePoolPatterns(const TransactionDatabase& db,
                                                PoolMiner miner,
                                                const MinerOptions& options,
                                                MinerStats* stats = nullptr);

// Builds the initial pool (paper §2.3 phase 1): the complete set of
// frequent patterns of size ≤ max_pattern_size, with the support sets
// the miner computed, in (size, lexicographic) order regardless of the
// miner (see MinePoolPatterns). `num_threads` (0 = auto) parallelizes
// the underlying miner; the pool is identical for any value.
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
