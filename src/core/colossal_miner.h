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
//
// MineColossal runs the whole pipeline: bounded complete mining for
// the initial pool, then the fusion loop. This is the API the examples
// and benches use:
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
  // min_support_count is used as an absolute count. A NaN sigma fails.
  double sigma = -1.0;
  int64_t min_support_count = 1;

  // Initial pool bound: mine the complete set of frequent patterns up to
  // this size (paper uses 2 or 3 depending on the dataset).
  int initial_pool_max_size = 3;

  // Kept only because perfbench/probe.cc reads it; always kApriori.
  PoolMiner pool_miner = PoolMiner::kApriori;

  // Core ratio τ ∈ (0, 1] (Definition 3). Controls both the ball radius
  // r(τ) and the fusion invariant. Smaller τ lets fusion jump farther
  // down the pattern tree in one step but admits looser cores.
  double tau = 0.5;

  // K: seeds drawn per iteration, and the target answer-set size (≥ 1;
  // top_k replaces it when set).
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

  // RNG seed for the draws and shuffles; fixed seed ⇒ identical runs.
  uint64_t seed = 1;

  // Top-k mode: when > 0, the answer is the top_k largest patterns
  // under the result order (size descending, ties lexicographic), and
  // top_k drives fusion's pool sizing — canonicalization overwrites k
  // with top_k, so the fusion loop draws top_k seeds per iteration and
  // converges at a pool of top_k, and FuseColossalFromPool truncates
  // the sorted answer to top_k. 0 = off (the legacy fixed-k behavior,
  // byte-identical to before the knob existed).
  int top_k = 0;

  // Item/cardinality constraints, pushed into the pool miner (items
  // outside the vocabulary never materialize Bitvectors), the fusion
  // merge step (max_len), and the final answer (min_len). Default
  // (unconstrained) is byte-identical to before the knob existed.
  MiningConstraints constraints;

  // Worker threads for fusion's per-seed work (ball query, shuffled
  // merges, retention sampling); initial-pool mining runs on the
  // calling thread. 0 = auto (hardware_concurrency). Mining output is
  // bit-identical for any value, including 1: randomness is derived per
  // seed slot, and candidates merge in slot order.
  int num_threads = 0;

  // Concurrent shards during the sharded miner's phase-1 fan-out
  // (shard/sharded_miner.h); ignored by unsharded mining. 0 = auto:
  // one shard job per resolved num_threads, capped by the shard count
  // and by the residency governor so concurrently resident shards fit
  // the registry budget — and sequential when the miner was given no
  // budget to govern with (direct library callers keep the
  // at-most-one-shard-resident guarantee unless they opt in
  // explicitly). 1 = the sequential walk.
  // Like num_threads, a pure performance knob: output is bit-identical
  // for any value, and canonicalization zeroes it.
  int shard_parallelism = 0;

  // Field-wise equality (every knob but the one-value pool_miner,
  // including the performance-only num_threads and shard_parallelism).
  friend bool operator==(const ColossalMinerOptions& a,
                         const ColossalMinerOptions& b) {
    return a.sigma == b.sigma && a.min_support_count == b.min_support_count &&
           a.initial_pool_max_size == b.initial_pool_max_size &&
           a.tau == b.tau && a.k == b.k &&
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
//   * num_threads and shard_parallelism are zeroed, because both are
//     pure execution knobs (output is bit-identical for any value);
//     executing callers read the caller's values, never the canonical
//     ones;
//   * constraints are canonicalized (lists sorted/deduplicated, no-op
//     bounds erased — see CanonicalizeConstraints), so equal
//     constraints in any spelling collapse;
//   * top_k > 0 overwrites k (top-k mode sizes the fusion pool by
//     top_k, so the requested k is output-irrelevant), and a max_len
//     bound caps initial_pool_max_size (patterns above the bound are
//     never wanted, so the pool never mines them).
// Fails INVALID_ARGUMENT on any option a mine cannot run with — sigma
// NaN or above 1, contradictory constraints, negative thread counts,
// min-support outside [1, |D|], τ outside (0, 1], an effective K (top_k
// when set, else k) below 1, or a pool size, iteration, attempt or
// retain bound below 1 — so a bad request is refused before any pool is
// mined. Idempotent — canonicalizing canonical options changes nothing
// — so the service can hand canonical options (with its execution knobs
// set) to MineColossal, which canonicalizes again.
// MineColossal(db, Canonicalize...(db, o)) == MineColossal(db, o).
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
// `arena` backs every mining temporary (initial-pool support sets,
// fusion scratch) so the whole mine frees in one Arena::Reset or
// destruction. It is optional: without one, MineColossal mines on an
// arena of its own that dies on return. It is a defaulted parameter —
// NOT a ColossalMinerOptions field — because those options are hashed,
// compared, and canonicalized as cache keys, and an execution-scoped
// pointer must never leak into request identity. The returned patterns
// are always heap-backed; output is byte-identical with or without a
// caller's arena.
//
// `trace`, when given, receives the wall time of the two phases:
// initial-pool mining (kPoolMine) and fusion (kFusion), and the pool
// miner's expanded nodes (pool_nodes_expanded). The serving layer passes
// its per-request trace, so a library caller gets the same phase split
// the server reports. Output is byte-identical either way.
//
// Fails INVALID_ARGUMENT on bad options, and FAILED_PRECONDITION only
// when no pattern is frequent (the sharded fuse mode reads that as a
// shard contributing no core patterns).
StatusOr<ColossalMiningResult> MineColossal(
    const TransactionDatabase& db, const ColossalMinerOptions& options,
    Arena* arena = nullptr, RequestTrace* trace = nullptr);

// The fusion loop (Algorithms 1–2): MineColossal's second half, for
// callers that build the initial pool some other way — notably the
// sharded miner, which recovers the pool from per-shard mining — so the
// byte-identical pipeline runs from that point on. `options` must carry
// an absolute min_support_count (options.sigma is ignored) and pass
// CanonicalizeMinerOptions's checks, else the call fails
// INVALID_ARGUMENT, as it does on an empty pool or on a pool pattern
// that is infrequent or whose support is not its support set's popcount.
// Each iteration's K seeds shard across options.num_threads workers;
// each seed slot draws from its own Rng stream derived from (seed,
// iteration, slot) and slots merge in slot order, so the output is
// identical for any thread count. `arena` backs fusion scratch as in
// MineColossal (without one the loop uses an arena of its own); the pool
// may itself be arena-backed, and the answer is copied onto the heap.
// `variable_merge_depth` mirrors the paper's Fusion of CoreList
// *subsets*: when true, a seed's first attempt merges to saturation and
// later attempts stop at a random merge budget, emitting intermediate
// super-patterns too; when false every attempt saturates. It is an
// ablation knob (bench/ablation_fusion_depth), not an option field,
// because the options are the cache key.
StatusOr<ColossalMiningResult> FuseColossalFromPool(
    int64_t num_transactions, std::vector<Pattern> initial_pool,
    const ColossalMinerOptions& options, Arena* arena = nullptr,
    bool variable_merge_depth = true);

}  // namespace colossal

#endif  // COLOSSAL_CORE_COLOSSAL_MINER_H_
