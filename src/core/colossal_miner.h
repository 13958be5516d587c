#ifndef COLOSSAL_CORE_COLOSSAL_MINER_H_
#define COLOSSAL_CORE_COLOSSAL_MINER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/pattern.h"
#include "core/pattern_fusion.h"
#include "data/transaction_database.h"
#include "mining/constraints.h"
#include "obs/trace.h"

namespace colossal {

// One-call facade over the whole pipeline: bounded complete mining for
// the initial pool, then iterative pattern fusion. This is the API the
// examples and benches use:
//
//   ColossalMinerOptions options;
//   options.sigma = 0.03;   // or set min_support_count directly
//   options.tau = 0.1;
//   options.k = 100;
//   StatusOr<ColossalMiningResult> result = MineColossal(db, options);
//
struct ColossalMinerOptions {
  // Support threshold. If sigma >= 0 it takes precedence and is converted
  // with TransactionDatabase::MinSupportCount; otherwise
  // min_support_count is used as an absolute count.
  double sigma = -1.0;
  int64_t min_support_count = 1;

  // Initial pool bound: mine the complete set of frequent patterns up to
  // this size (paper uses 2 or 3 depending on the dataset).
  int initial_pool_max_size = 3;

  // Which complete miner builds the pool. Identical output either way,
  // so like num_threads it is an execution knob that canonicalization
  // resets (to kApriori).
  PoolMiner pool_miner = PoolMiner::kApriori;

  // Fusion parameters (see PatternFusionOptions).
  double tau = 0.5;
  int k = 100;
  int max_iterations = 50;
  int fusion_attempts_per_seed = 2;
  int max_superpatterns_per_seed = 2;
  uint64_t seed = 1;

  // Top-k mode: when > 0, the answer is the top_k largest patterns
  // under the result order (size descending, ties lexicographic), and
  // top_k drives fusion's pool sizing — canonicalization overwrites k
  // with top_k, so the fusion loop draws top_k seeds per iteration and
  // converges at a pool of top_k, and FuseColossalFromPool truncates
  // the sorted answer to top_k. 0 = off (the legacy fixed-k behavior,
  // byte-identical to before the knob existed).
  int top_k = 0;

  // Item/cardinality constraints, pushed into the pool miners (items
  // outside the vocabulary never materialize Bitvectors), the fusion
  // merge step (max_len), and the final answer (min_len). Default
  // (unconstrained) is byte-identical to before the knob existed.
  MiningConstraints constraints;

  // Worker threads for both phases — initial-pool mining and the fusion
  // engine's per-seed work. 0 = auto (hardware_concurrency). Mining
  // output is bit-identical for any value (see PatternFusionOptions).
  int num_threads = 0;

  // Concurrent shards during the sharded miner's phase-1 fan-out
  // (shard/sharded_miner.h); ignored by unsharded mining. 0 = auto:
  // one shard job per hardware thread, capped by the residency
  // governor so concurrently resident shards fit the registry budget —
  // and sequential when the miner was given no budget to govern with
  // (direct library callers keep the at-most-one-shard-resident
  // guarantee unless they opt in explicitly). 1 = the sequential walk.
  // Like num_threads, a pure performance knob: output is bit-identical
  // for any value, and canonicalization zeroes it.
  int shard_parallelism = 0;

  // Field-wise equality (every knob, including the performance-only
  // num_threads and shard_parallelism).
  friend bool operator==(const ColossalMinerOptions& a,
                         const ColossalMinerOptions& b) {
    return a.sigma == b.sigma && a.min_support_count == b.min_support_count &&
           a.initial_pool_max_size == b.initial_pool_max_size &&
           a.pool_miner == b.pool_miner && a.tau == b.tau && a.k == b.k &&
           a.max_iterations == b.max_iterations &&
           a.fusion_attempts_per_seed == b.fusion_attempts_per_seed &&
           a.max_superpatterns_per_seed == b.max_superpatterns_per_seed &&
           a.seed == b.seed && a.num_threads == b.num_threads &&
           a.shard_parallelism == b.shard_parallelism && a.top_k == b.top_k &&
           a.constraints == b.constraints;
  }
};

// Rewrites `options` into the canonical form the service layer caches
// under: equivalent requests — same mining output by construction —
// collapse to equal structs. The rewrites:
//   * a fractional sigma is resolved against `db` into the absolute
//     min_support_count it denotes (then cleared), so sigma 0.5 and the
//     matching --min-support collapse;
//   * num_threads and shard_parallelism are zeroed and pool_miner is
//     reset to kApriori, because all three are pure execution knobs
//     (output is bit-identical for any value); executing callers read
//     the caller's values, never the canonical ones;
//   * constraints are canonicalized (lists sorted/deduplicated, no-op
//     bounds erased — see CanonicalizeConstraints), so equal
//     constraints in any spelling collapse;
//   * top_k > 0 overwrites k (top-k mode sizes the fusion pool by
//     top_k, so the requested k is output-irrelevant), and a max_len
//     bound caps initial_pool_max_size (patterns above the bound are
//     never wanted, so the pool never mines them).
// Fails on sigma > 1 or contradictory constraints (mirroring
// MineColossal's validation). Idempotent — canonicalizing canonical
// options changes nothing — so the service can hand canonical options
// (with its execution knobs set) to MineColossal, which canonicalizes
// again. MineColossal(db, Canonicalize...(db, o)) == MineColossal(db, o).
StatusOr<ColossalMinerOptions> CanonicalizeMinerOptions(
    const TransactionDatabase& db, const ColossalMinerOptions& options);

// Same rewrite given only the transaction count — canonicalization
// depends on the database solely through |D| (sigma resolution). The
// shard layer uses this to canonicalize a request against a manifest
// without loading a single shard.
StatusOr<ColossalMinerOptions> CanonicalizeMinerOptionsForSize(
    int64_t num_transactions, const ColossalMinerOptions& options);

struct ColossalMiningResult {
  // The approximation to the colossal patterns, largest first.
  std::vector<Pattern> patterns;
  // Size of the initial pool that fusion started from.
  int64_t initial_pool_size = 0;
  // Number of fusion iterations executed.
  int iterations = 0;
  // Whether fusion converged to ≤ k patterns (vs. stopping on the
  // iteration bound).
  bool converged = false;
  // Per-iteration pool trajectory.
  std::vector<FusionIterationStats> iteration_stats;
};

// Runs initial-pool mining + Pattern-Fusion end to end.
//
// `arena`, when given, backs every mining temporary (initial-pool
// support sets, fusion scratch) so the whole mine frees in one
// Arena::Reset. It is a defaulted parameter — NOT a ColossalMinerOptions
// field — because those options are hashed, compared, and canonicalized
// as cache keys, and an execution-scoped pointer must never leak into
// request identity. The returned patterns are always heap-backed;
// output is byte-identical with or without an arena.
//
// `trace`, when given, receives the wall time of the two phases:
// initial-pool mining (kPoolMine) and fusion (kFusion), and the pool
// miner's expanded nodes (pool_nodes_expanded). The serving layer passes
// its per-request trace, so a library caller gets the same phase split
// the server reports. Output is byte-identical either way.
StatusOr<ColossalMiningResult> MineColossal(
    const TransactionDatabase& db, const ColossalMinerOptions& options,
    Arena* arena = nullptr, RequestTrace* trace = nullptr);

// The fusion half of MineColossal, split out so callers that build the
// initial pool some other way — notably the sharded miner, which
// recovers the pool from per-shard mining — run the byte-identical
// pipeline from that point on. `options` must already carry an absolute
// min_support_count (sigma resolved; options.sigma ignored), and the
// pool patterns' support sets must span `num_transactions` bits.
// `arena` backs fusion scratch exactly as in MineColossal; the pool may
// itself be arena-backed. Result patterns are detached onto the heap
// before returning, so they survive any later Arena::Reset.
StatusOr<ColossalMiningResult> FuseColossalFromPool(
    int64_t num_transactions, std::vector<Pattern> initial_pool,
    const ColossalMinerOptions& options, Arena* arena = nullptr);

}  // namespace colossal

#endif  // COLOSSAL_CORE_COLOSSAL_MINER_H_
