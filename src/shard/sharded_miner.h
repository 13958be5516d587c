#ifndef COLOSSAL_SHARD_SHARDED_MINER_H_
#define COLOSSAL_SHARD_SHARDED_MINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/colossal_miner.h"
#include "data/transaction_database.h"
#include "obs/trace.h"
#include "shard/shard_manifest.h"

namespace colossal {

// Mining over a sharded dataset — the system-level echo of the paper's
// core idea: mine small neighborhoods, then fuse. Phase-1 per-shard
// mining fans out across a thread pool whose width is bounded by a
// residency governor (see MaxConcurrentResidentShards): per-shard byte
// estimates from the manifest decide how many shards may be resident at
// once under the registry budget, so cold sharded mines use every core
// the budget admits while never holding more shard bytes than a
// sequential walk's budget would. The miner mines each shard and merges
// per-shard results in one of two modes:
//
//   kExact — recovers the output of unsharded MineColossal *byte for
//     byte*. Per shard, the complete bounded-size miner runs at the
//     Partition-scaled local threshold ⌊σ·|D_i|⌋ (Savasere-style: any
//     globally frequent itemset is locally frequent in at least one
//     shard, so the union of per-shard results is a candidate superset
//     of the global initial pool) and hands over its patterns in
//     (size, lexicographic) order with their shard-local support sets
//     (MinePoolPatterns). A sorted merge in manifest order ORs each
//     local set into the candidate's global support set
//     (Bitvector::OrWithShifted at the shard's row offset); a re-count
//     pass then counts only the (candidate, shard) pairs the shard did
//     not mine, and globally infrequent candidates are dropped —
//     recovering the global initial pool, already in the order Apriori
//     enumerates. FuseColossalFromPool then runs the identical fusion
//     pipeline, so results, iteration stats and cache entries are
//     interchangeable with unsharded mining.
//
//   kFuse — the approximate mode for datasets too large to ever re-mine
//     whole: each shard runs full MineColossal locally, the per-shard
//     colossal patterns (with their local support sets, sorted into the
//     same order) are treated as core patterns, their global supports
//     are recovered by the same merge and re-count (dropping globally
//     infrequent ones), and FuseColossalFromPool fuses the union. The
//     answer approximates the global colossal patterns without any
//     single pass over an unsharded pool.
//
// Both modes are deterministic for any thread count and any shard
// parallelism: per-shard results are collected by shard index (never
// completion order) and merged in manifest order, per-shard miners are
// themselves thread-count invariant with RNG streams derived from the
// options alone (never from scheduling), and the merge keeps the
// candidates in pool order — so exact mode stays byte-identical to both
// the sequential sharded walk and unsharded MineColossal, and fuse mode
// is identical across shard parallelism and thread counts. Exact mode
// mines each shard on its job's thread; fuse mode's concurrent jobs
// split the request's threads between them, each fusing at
// max(1, resolved num_threads / fan-out).

enum class ShardMergeMode {
  kExact,
  kFuse,
};

const char* ShardMergeModeName(ShardMergeMode mode);

// Parses "exact" | "fuse" (the request grammar's --shards values).
StatusOr<ShardMergeMode> ParseShardMergeMode(const std::string& name);

// The Partition-scaled local threshold for a shard of `shard_rows` rows
// out of `total_rows`: max(1, ⌊min_support·shard_rows/total_rows⌋).
// Mining every shard at this clamped floor yields a candidate superset
// of the globally frequent itemsets. The multiply runs in 128-bit
// arithmetic, so near-INT64_MAX products of support × shard rows cannot
// overflow into a wrong (unsound) threshold.
int64_t ShardLocalMinSupport(int64_t min_support, int64_t shard_rows,
                             int64_t total_rows);

// Estimated resident bytes of a shard once loaded, from manifest
// metadata plus one stat(2) and one magic-sniff of the shard file — no
// shard load. Snapshot shards store rows and tidsets near their
// in-memory layout, so file size plus per-row/per-item container
// overhead over-estimates TransactionDatabase::ApproxMemoryBytes
// slightly; text shards (FIMI/matrix, legal in hand-authored manifests)
// are bounded by 2x file size for the row store plus the full vertical
// index, which only exists in memory. Over-estimating is the safe
// direction for admission control: never under-reserve. Unreachable
// files fall back to a row/item worst-case bound (the subsequent load
// fails with its own Status anyway).
int64_t EstimateShardResidentBytes(const ShardInfo& info, int64_t num_items);

// Estimated bytes of mining-temporary (arena) storage one shard's
// phase-1 mine allocates on top of the resident shard itself: bounded
// heuristically by a vertical-index-sized set of candidate tidsets (the
// popcount-before-materialize discipline keeps materialized candidates
// to frequent survivors, each a rows-bit set) plus one arena chunk of
// slack. The sharded miner adds this to EstimateShardResidentBytes per
// shard, so the residency governor's fan-out cap and the registry's
// pinned-load reservations both charge for mining scratch, not just the
// dataset. A heuristic charge, not a hard bound — the arena itself
// grows as needed; 128-bit saturating like the resident estimate.
int64_t EstimateShardArenaBytes(const ShardInfo& info, int64_t num_items);

// The residency governor: how many shards may be resident at once so
// that any concurrently loaded subset fits `budget_bytes` (computed
// against the largest estimates, since the scheduler may co-locate
// them). budget_bytes <= 0 means no budget: every shard may be
// resident. Never less than 1 — a single over-budget shard still mines,
// exactly like the registry's single-dataset rule.
int MaxConcurrentResidentShards(const std::vector<int64_t>& estimated_bytes,
                                int64_t budget_bytes);

// One shard as handed to the miner by its loader. The fingerprint must
// be FingerprintDatabase of the loaded content; the miner verifies it
// against the manifest so a swapped or rewritten shard file fails with
// a Status instead of silently corrupting the merge. `pin` (optional)
// keeps an admission-controlled registry entry resident while the shard
// is in use; the miner drops it with the shard.
struct LoadedShard {
  std::shared_ptr<const TransactionDatabase> db;
  uint64_t fingerprint = 0;
  std::shared_ptr<void> pin;
};

// Resolves a shard path to its database. `estimated_bytes` is the
// residency governor's estimate for the shard (0 = unknown); loaders
// backed by an admission-controlled registry pass it through
// DatasetRegistry::GetPinned so concurrent loads reserve before they
// read. Plain disk loaders may ignore it.
using ShardLoader = std::function<StatusOr<LoadedShard>(
    const std::string& path, int64_t estimated_bytes)>;

// Residency context for the fan-out. budget_bytes mirrors the dataset
// registry's memory budget; <= 0 means no budget is known, so
// shard_parallelism 0 (auto) stays sequential — preserving the
// at-most-one-shard-resident guarantee for direct callers — and only an
// explicit shard_parallelism > 1 fans out (bounded then just by the
// shard count).
struct ShardResidencyOptions {
  int64_t budget_bytes = 0;

  // Optional per-request trace: the miner accumulates phase-1 wall time
  // (the shard jobs and the sorted merge of their pools) into kPoolMine,
  // the re-count of unmined pairs + the global frequency filter into
  // kStitch, and the final fusion into kFusion; it stores the phase-1
  // fan-out it resolved into shard_parallelism, sums the exact-mode
  // shard miners' expanded nodes into pool_nodes_expanded, and CAS-maxes
  // every per-shard mining arena and the re-count scratch arena into
  // arena_peak_bytes. Registry/admission time inside the loader is the
  // *loader's* to attribute (the service times it as kRegistry from
  // inside its loader lambda), so for a parallel fan-out it overlaps the
  // kPoolMine wall span rather than being subtracted from it. Purely
  // observational: mining output is byte-identical with or without a
  // trace.
  RequestTrace* trace = nullptr;
};

class ShardedMiner {
 public:
  // `manifest` must carry resolved shard paths (ReadShardManifestFile).
  ShardedMiner(ShardManifest manifest, ShardLoader loader,
               ShardResidencyOptions residency = {});

  ShardedMiner(const ShardedMiner&) = delete;
  ShardedMiner& operator=(const ShardedMiner&) = delete;

  // Mines the sharded dataset. `options` is interpreted and validated
  // exactly as MineColossal does (sigma resolved against the manifest's
  // transaction count; num_threads and shard_parallelism are pure
  // execution knobs, read from `options` as given), so invalid options
  // fail INVALID_ARGUMENT before any shard loads.
  //
  // `arena` backs the cross-shard phases (the merged global support
  // sets and fusion scratch) exactly as MineColossal's arena parameter
  // does, and without one the miner uses an arena of its own for this
  // mine; phase-1 shard jobs always use their own short-lived arenas,
  // one per job, freed once the job's pool has been merged. Result
  // patterns are heap-backed either way, and output is byte-identical
  // with or without an arena.
  StatusOr<ColossalMiningResult> Mine(const ColossalMinerOptions& options,
                                      ShardMergeMode mode,
                                      Arena* arena = nullptr) const;

 private:
  // Loads shard `index` (passing the residency governor's
  // `estimated_bytes` through to the loader) and verifies it against
  // the manifest: row count must match the range, the fingerprint must
  // match the manifest's, and the item domain must fit the parent's.
  StatusOr<LoadedShard> LoadShard(size_t index, int64_t estimated_bytes) const;

  // Phase-1 fan-out width for this request: min(shard_parallelism, or
  // the resolved num_threads when it is 0 (auto); shard count; governor
  // admission over the per-shard `estimates`).
  int ResolveFanOut(const ColossalMinerOptions& options,
                    const std::vector<int64_t>& estimates) const;

  const ShardManifest manifest_;
  const ShardLoader loader_;
  const ShardResidencyOptions residency_;
};

}  // namespace colossal

#endif  // COLOSSAL_SHARD_SHARDED_MINER_H_
