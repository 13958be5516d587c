#include "shard/sharded_miner.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "core/pattern.h"
#include "data/snapshot_io.h"
#include "mining/miner.h"

namespace colossal {

namespace {

// One phase-1 shard job's output: the shard's patterns in pool order
// (PoolOrderLess) with their shard-local support sets, the arena backing
// those sets (exact mode; fuse mode's patterns are heap-backed), and the
// shard's item domain, which the re-count pass needs without reloading
// the shard.
struct ShardPool {
  std::unique_ptr<Arena> arena;
  std::vector<Pattern> patterns;
  ItemId num_items = 0;
};

// A candidate of the global pool while shard pools merge in: its global
// support set so far (local sets ORed in at each mining shard's row
// offset), and the shards that did not mine it — the only pairs the
// re-count pass must still count.
struct Candidate {
  Pattern pattern;
  std::vector<size_t> unmined_shards;
};

// CAS-max a finished arena's high-water mark into the request's trace
// (when one is wired).
void RecordArenaPeak(RequestTrace* trace, const Arena& arena) {
  if (trace != nullptr) {
    RaiseArenaPeak(trace->arena_peak_bytes, arena.high_water_bytes());
  }
}

// Whether `path` starts with the snapshot magic (one 8-byte read — the
// byte-estimate below must know which on-disk layout it is bounding).
bool HasSnapshotMagic(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char magic[8];
  const size_t bytes_read = std::fread(magic, 1, sizeof(magic), file);
  std::fclose(file);
  return bytes_read == sizeof(magic) &&
         LooksLikeSnapshot(std::string(magic, sizeof(magic)));
}

}  // namespace

const char* ShardMergeModeName(ShardMergeMode mode) {
  switch (mode) {
    case ShardMergeMode::kExact:
      return "exact";
    case ShardMergeMode::kFuse:
      return "fuse";
  }
  return "unknown";
}

StatusOr<ShardMergeMode> ParseShardMergeMode(const std::string& name) {
  if (name == "exact") return ShardMergeMode::kExact;
  if (name == "fuse") return ShardMergeMode::kFuse;
  return Status::InvalidArgument("unknown shard merge mode '" + name +
                                 "' (want exact|fuse)");
}

// An itemset X with global support >= s satisfies, in at least one
// shard i, sup_i(X) >= s·|D_i|/|D| (real-valued: were sup_i(X) strictly
// below that bound in every shard, summing over shards would put the
// global support strictly below s). Any integer >= s·|D_i|/|D| is also
// >= max(1, ⌊s·|D_i|/|D|⌋) — the floor must NOT be tightened to a
// ceiling, which would violate the bound exactly at integer boundaries.
// The multiply is the overflow hazard: min_support and shard_rows are
// each bounded by |D|, so their product can pass INT64_MAX long before
// either operand does — hence the 128-bit intermediate (the quotient is
// <= min_support, so the cast back is always in range).
int64_t ShardLocalMinSupport(int64_t min_support, int64_t shard_rows,
                             int64_t total_rows) {
  const int64_t scaled = static_cast<int64_t>(
      static_cast<__int128>(min_support) * shard_rows / total_rows);
  return scaled < 1 ? 1 : scaled;
}

int64_t EstimateShardResidentBytes(const ShardInfo& info, int64_t num_items) {
  // Manifest row/item counts are caller-supplied (any int64 passes
  // manifest validation), so all arithmetic runs in 128 bits and
  // saturates: a hostile manifest must yield a huge-but-valid estimate
  // — which admission handles like any over-budget dataset — never a
  // negative one (and never an abort downstream).
  const auto saturate = [](__int128 value) {
    const __int128 max64 = std::numeric_limits<int64_t>::max();
    if (value > max64) return std::numeric_limits<int64_t>::max();
    if (value < 0) return int64_t{0};
    return static_cast<int64_t>(value);
  };
  const __int128 rows = info.rows();
  const __int128 items = num_items;
  // Container overhead the snapshot encoding does not pay: one Itemset
  // header per row, one Bitvector header per item, plus struct slack.
  const __int128 overhead = rows * static_cast<int64_t>(sizeof(Itemset)) +
                            items * static_cast<int64_t>(sizeof(Bitvector)) +
                            4096;
  struct stat file_info;
  if (::stat(info.path.c_str(), &file_info) == 0) {
    const __int128 file_bytes = file_info.st_size;
    if (HasSnapshotMagic(info.path)) {
      // Snapshot shards store rows and tidsets near their in-memory
      // layout, so file size plus overhead over-estimates.
      return saturate(file_bytes + overhead);
    }
    // Text shard (FIMI/matrix — nothing forces hand-authored manifests
    // to reference snapshots): every occurrence costs >= 2 bytes of
    // text vs 4 in memory, so the row store is <= 2x the file size; the
    // vertical index (one rows-bit tidset per item) exists only in
    // memory and is added in full.
    return saturate(2 * file_bytes + items * ((rows + 7) / 8) + overhead);
  }
  // Unreachable file: bound by the row store's worst case within the
  // item domain plus the vertical index (rows bits per item).
  return saturate(rows * ((items + 7) / 8) + items * ((rows + 7) / 8) +
                  overhead);
}

int64_t EstimateShardArenaBytes(const ShardInfo& info, int64_t num_items) {
  const auto saturate = [](__int128 value) {
    const __int128 max64 = std::numeric_limits<int64_t>::max();
    if (value > max64) return std::numeric_limits<int64_t>::max();
    if (value < 0) return int64_t{0};
    return static_cast<int64_t>(value);
  };
  const __int128 rows = info.rows();
  const __int128 items = num_items;
  // One rows-bit tidset per item of live candidate scratch, plus one
  // default chunk so tiny shards still charge the arena's floor.
  return saturate(items * ((rows + 7) / 8) + Arena::kDefaultChunkBytes);
}

int MaxConcurrentResidentShards(const std::vector<int64_t>& estimated_bytes,
                                int64_t budget_bytes) {
  const int count = static_cast<int>(estimated_bytes.size());
  if (budget_bytes <= 0 || count <= 1) return count < 1 ? 1 : count;
  // Admission must hold for *any* concurrently resident subset the
  // scheduler might produce, so the governor sums the largest k
  // estimates: the largest k that still fits is the answer.
  std::vector<int64_t> sorted = estimated_bytes;
  std::sort(sorted.begin(), sorted.end(),
            [](int64_t a, int64_t b) { return a > b; });
  int admitted = 0;
  int64_t total = 0;
  // total <= budget_bytes always holds, so the subtraction form cannot
  // overflow even on saturated INT64_MAX estimates.
  while (admitted < count && sorted[admitted] <= budget_bytes - total) {
    total += sorted[admitted];
    ++admitted;
  }
  return admitted < 1 ? 1 : admitted;
}

ShardedMiner::ShardedMiner(ShardManifest manifest, ShardLoader loader,
                           ShardResidencyOptions residency)
    : manifest_(std::move(manifest)),
      loader_(std::move(loader)),
      residency_(residency) {}

int ShardedMiner::ResolveFanOut(const ColossalMinerOptions& options,
                                const std::vector<int64_t>& estimates) const {
  // Auto (0) without a residency budget stays sequential: sharding
  // exists so datasets larger than memory mine within a bound, and a
  // default-constructed miner has no information to bound concurrent
  // residency with — wide fan-out is opt-in there, either via an
  // explicit shard_parallelism (the caller takes responsibility) or by
  // supplying the budget the governor needs (the service always does).
  if (options.shard_parallelism == 0 && residency_.budget_bytes <= 0) {
    return 1;
  }
  // Auto (0) spends the request's thread budget: one job per thread.
  const int num_shards = static_cast<int>(manifest_.shards.size());
  int fan_out = options.shard_parallelism > 0
                    ? options.shard_parallelism
                    : ResolveNumThreads(options.num_threads);
  if (fan_out > num_shards) fan_out = num_shards;
  if (residency_.budget_bytes > 0 && fan_out > 1) {
    const int admitted =
        MaxConcurrentResidentShards(estimates, residency_.budget_bytes);
    if (fan_out > admitted) fan_out = admitted;
  }
  return fan_out < 1 ? 1 : fan_out;
}

StatusOr<LoadedShard> ShardedMiner::LoadShard(size_t index,
                                              int64_t estimated_bytes) const {
  const ShardInfo& info = manifest_.shards[index];
  StatusOr<LoadedShard> shard = loader_(info.path, estimated_bytes);
  if (!shard.ok()) {
    return Status(shard.status().code(), "shard " + std::to_string(index) +
                                             " (" + info.path + "): " +
                                             shard.status().message());
  }
  if (shard->db == nullptr) {
    return Status::Internal("shard loader returned no database");
  }
  if (shard->db->num_transactions() != info.rows()) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(index) + " (" + info.path + ") holds " +
        std::to_string(shard->db->num_transactions()) +
        " transactions, manifest declares " + std::to_string(info.rows()));
  }
  if (shard->fingerprint != info.fingerprint) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(index) + " (" + info.path +
        ") fingerprint mismatch vs manifest (shard file rewritten or "
        "swapped?)");
  }
  if (static_cast<int64_t>(shard->db->num_items()) > manifest_.num_items) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(index) + " (" + info.path +
        ") uses item ids beyond the parent's domain");
  }
  return shard;
}

StatusOr<ColossalMiningResult> ShardedMiner::Mine(
    const ColossalMinerOptions& options, ShardMergeMode mode,
    Arena* arena) const {
  const int64_t total_rows = manifest_.num_transactions;
  // Canonicalization validates the options, the caller's thread counts
  // included, before any shard loads.
  StatusOr<ColossalMinerOptions> canonical =
      CanonicalizeMinerOptionsForSize(total_rows, options);
  if (!canonical.ok()) return canonical.status();
  const int64_t min_support = canonical->min_support_count;
  // A caller without an arena gets one for this mine, as in
  // MineColossal. Declared before the candidates it backs.
  Arena own_arena;
  if (arena == nullptr) arena = &own_arena;

  // Phase 1 — per-shard mining, fanned out across a bounded pool of
  // shard jobs. ResolveFanOut caps concurrency so the concurrently
  // resident shards always fit the registry budget (at fan-out 1 the
  // shards load, mine and merge one at a time on the calling thread: at
  // most one shard resident beyond the registry's choices). Each job's
  // pool lands in its shard's slot and is merged in manifest order, so
  // the candidate list — and everything downstream — is byte-identical
  // at every fan-out regardless of completion order. Per-shard miners
  // derive any randomness from the options alone (each MineColossal call
  // seeds its own RNG stream from options.seed), never from scheduling,
  // which keeps fuse mode identical across thread counts and parallelism
  // too.
  // The phase-1 wall clock (kPoolMine) covers estimation, the fan-out
  // and the sorted merge of the shard pools; loader-side
  // registry/admission time is attributed to kRegistry by the loader
  // itself and overlaps this span when the fan-out is parallel.
  PhaseTimer pool_timer(residency_.trace, TracePhase::kPoolMine);
  const size_t num_shards = manifest_.shards.size();
  // One estimate per shard (one stat each), shared by the governor and
  // every load below so both reason from the same numbers. Each shard
  // is charged for its resident bytes plus its mining-arena scratch, so
  // admission reserves what a shard job actually holds while mining.
  std::vector<int64_t> estimates;
  estimates.reserve(num_shards);
  for (const ShardInfo& info : manifest_.shards) {
    const int64_t resident =
        EstimateShardResidentBytes(info, manifest_.num_items);
    const int64_t scratch = EstimateShardArenaBytes(info, manifest_.num_items);
    estimates.push_back(resident > std::numeric_limits<int64_t>::max() - scratch
                            ? std::numeric_limits<int64_t>::max()
                            : resident + scratch);
  }
  const int fan_out = ResolveFanOut(options, estimates);
  if (residency_.trace != nullptr) {
    residency_.trace->shard_parallelism.store(fan_out,
                                              std::memory_order_relaxed);
  }
  // Thread budget: exact mode mines each shard on its job's thread;
  // fuse mode's concurrent jobs split the request's threads between
  // them (at least one each) for their per-shard fusion, so a fan-out
  // never runs more threads than the request asked for.
  const int job_threads =
      std::max(1, ResolveNumThreads(options.num_threads) / fan_out);
  auto mine_shard = [&](size_t i) -> StatusOr<ShardPool> {
    StatusOr<LoadedShard> shard = LoadShard(i, estimates[i]);
    if (!shard.ok()) return shard.status();
    const int64_t local_min = ShardLocalMinSupport(
        min_support, manifest_.shards[i].rows(), total_rows);

    // One arena per shard job, so concurrent jobs never contend on each
    // other's allocator. In exact mode it backs the handed-over local
    // sets and lives until they are merged; in fuse mode only scratch
    // lives there, and it dies with the job.
    ShardPool mined_pool;
    mined_pool.num_items = shard->db->num_items();
    auto shard_arena = std::make_unique<Arena>();
    if (mode == ShardMergeMode::kExact) {
      // The complete bounded-size miner at the Partition-scaled
      // threshold: the union over shards is a superset of the global
      // initial pool.
      MinerOptions miner_options;
      miner_options.min_support_count = local_min;
      miner_options.max_pattern_size = canonical->initial_pool_max_size;
      miner_options.arena = shard_arena.get();
      // Constraint pushdown reaches each shard's complete miner:
      // excluded vocabulary never materializes a per-shard Bitvector,
      // exactly as in the unsharded BuildInitialPool path.
      miner_options.constraints = canonical->constraints;
      MinerStats stats;
      StatusOr<std::vector<Pattern>> mined =
          MinePoolPatterns(*shard->db, miner_options, &stats);
      if (!mined.ok()) return mined.status();
      if (residency_.trace != nullptr) {
        residency_.trace->pool_nodes_expanded.fetch_add(
            stats.nodes_expanded, std::memory_order_relaxed);
      }
      mined_pool.patterns = *std::move(mined);
      RecordArenaPeak(residency_.trace, *shard_arena);
      mined_pool.arena = std::move(shard_arena);
    } else {
      // Approximate fusion: each shard's colossal patterns are the core
      // patterns the cross-shard fusion will draw from. No trace: the
      // kPoolMine wall span above already covers these shard mines.
      ColossalMinerOptions local = *canonical;
      local.sigma = -1.0;
      local.min_support_count = local_min;
      local.num_threads = job_threads;
      // Result shaping (top-k truncation, min_len filtering) applies
      // once, at the final cross-shard fusion — a per-shard cut would
      // drop the small core patterns the global fusion builds from.
      // Vocabulary and max_len pushdown stay: they bound what may ever
      // appear in the answer, shard-locally as much as globally.
      local.top_k = 0;
      local.constraints.min_len = 0;
      StatusOr<ColossalMiningResult> mined =
          MineColossal(*shard->db, local, shard_arena.get());
      if (!mined.ok()) return mined.status();
      RecordArenaPeak(residency_.trace, *shard_arena);
      mined_pool.patterns = std::move(mined->patterns);
      std::sort(mined_pool.patterns.begin(), mined_pool.patterns.end(),
                PoolOrderLess);
    }
    return mined_pool;
  };

  // The sorted merge: folds shard i's pool into `candidates`, both in
  // pool order, in one walk. A pattern the shard mined ORs its local set
  // into the candidate's global set at the shard's row offset; a
  // candidate the shard did not mine records the shard for the
  // re-count; a pattern no lower shard mined becomes a new candidate
  // that every lower shard must re-count, spliced in at the position the
  // walk found for it. Shards merge in manifest order, so the candidates
  // never depend on completion order and stay in pool order without a
  // sort.
  //
  // While shard jobs run, merge_mutex guards the merge state: the
  // candidates, each merged shard's item domain, the slots where
  // finished jobs park their pools, and the count of merged shards.
  std::mutex merge_mutex;
  std::vector<Candidate> candidates;
  std::vector<ItemId> shard_domains(num_shards, 0);
  std::vector<std::optional<StatusOr<ShardPool>>> slots(num_shards);
  size_t merged_shards = 0;
  auto merge_shard = [&](size_t i, ShardPool& mined) {
    const int64_t offset = manifest_.shards[i].row_begin;
    shard_domains[i] = mined.num_items;
    std::vector<Candidate> fresh;
    std::vector<size_t> fresh_before;  // fresh[k] goes before this index
    size_t c = 0;
    for (Pattern& local : mined.patterns) {
      while (c < candidates.size() &&
             PoolOrderLess(candidates[c].pattern, local)) {
        candidates[c++].unmined_shards.push_back(i);
      }
      if (c < candidates.size() && candidates[c].pattern.items == local.items) {
        candidates[c++].pattern.support_set.OrWithShifted(local.support_set,
                                                          offset);
        continue;
      }
      Candidate& added = fresh.emplace_back();
      fresh_before.push_back(c);
      added.pattern.items = std::move(local.items);
      added.pattern.support_set = Bitvector(total_rows, arena);
      added.pattern.support_set.OrWithShifted(local.support_set, offset);
      for (size_t lower = 0; lower < i; ++lower) {
        added.unmined_shards.push_back(lower);
      }
    }
    for (; c < candidates.size(); ++c) {
      candidates[c].unmined_shards.push_back(i);
    }
    if (candidates.empty()) {
      candidates = std::move(fresh);
      return;
    }
    if (fresh.empty()) return;
    std::vector<Candidate> merged;
    merged.reserve(candidates.size() + fresh.size());
    size_t next = 0;
    for (size_t k = 0; k < fresh.size(); ++k) {
      while (next < fresh_before[k]) {
        merged.push_back(std::move(candidates[next++]));
      }
      merged.push_back(std::move(fresh[k]));
    }
    while (next < candidates.size()) {
      merged.push_back(std::move(candidates[next++]));
    }
    candidates = std::move(merged);
  };

  // Every finished job parks its pool in its shard's slot, then merges
  // whatever prefix of slots is ready, in manifest order — so a shard's
  // local sets (and arena) free as soon as every lower shard has merged,
  // and at fan-out 1 at most one shard's sets exist beside the global
  // candidates. A failed slot stops the merge there; the lowest failing
  // shard's status is what the call returns.
  auto finish_shard = [&](size_t i, StatusOr<ShardPool> mined) {
    // Declared before the lock, so merged pools free after it releases.
    std::vector<ShardPool> merged_pools;
    std::lock_guard<std::mutex> lock(merge_mutex);
    slots[i] = std::move(mined);
    while (merged_shards < num_shards && slots[merged_shards].has_value() &&
           slots[merged_shards]->ok()) {
      merge_shard(merged_shards, **slots[merged_shards]);
      merged_pools.push_back(*std::move(*slots[merged_shards]));
      slots[merged_shards].reset();
      ++merged_shards;
    }
  };
  {
    // A dedicated pool sized to the admitted width, alive for phase 1
    // only (none at fan-out 1, where the loop runs on this thread): each
    // worker holds at most one shard resident at a time, so concurrent
    // residency is bounded by fan_out even before the loader's own
    // admission control. Fail-fast: once shard f has failed, shards
    // *above* f are skipped, never loaded, while shards below f still
    // mine — so the reported failure is the true lowest-index one, not a
    // scheduling accident.
    std::atomic<int64_t> first_failure{std::numeric_limits<int64_t>::max()};
    std::optional<ThreadPool> shard_pool;
    if (fan_out > 1) shard_pool.emplace(fan_out);
    ParallelFor(shard_pool ? &*shard_pool : nullptr,
                static_cast<int64_t>(num_shards), [&](int64_t i) {
      if (i > first_failure.load(std::memory_order_acquire)) {
        // Never read: the merge stops at the lower failing index.
        finish_shard(static_cast<size_t>(i),
                     Status::Internal(
                         "shard skipped after an earlier shard failed"));
        return;
      }
      StatusOr<ShardPool> mined = mine_shard(static_cast<size_t>(i));
      if (!mined.ok()) {
        int64_t lowest = first_failure.load(std::memory_order_relaxed);
        while (i < lowest && !first_failure.compare_exchange_weak(
                                 lowest, i, std::memory_order_release)) {
        }
      }
      finish_shard(static_cast<size_t>(i), std::move(mined));
    });
  }
  if (merged_shards < num_shards) return slots[merged_shards]->status();
  pool_timer.Stop();
  if (candidates.empty()) {
    return Status::FailedPrecondition(
        "no frequent patterns at min_support_count " +
        std::to_string(min_support));
  }

  // The stitch span (kStitch) covers the re-count and the global
  // frequency filter (phases 2 and 3).
  PhaseTimer stitch_timer(residency_.trace, TracePhase::kStitch);

  // Phase 2 — re-count the (candidate, shard) pairs the shard did not
  // mine, so every global support set is exact. A pair whose pattern
  // uses an item outside the shard's domain has no rows there and is
  // skipped; a shard with nothing left to count is never loaded again.
  // Local sets go to a scratch arena rewound after every shard.
  std::vector<std::vector<size_t>> recount(num_shards);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const Itemset& items = candidates[c].pattern.items;
    for (size_t shard : candidates[c].unmined_shards) {
      if (items[items.size() - 1] < shard_domains[shard]) {
        recount[shard].push_back(c);
      }
    }
  }
  Arena recount_scratch;
  for (size_t i = 0; i < num_shards; ++i) {
    if (recount[i].empty()) continue;
    StatusOr<LoadedShard> shard = LoadShard(i, estimates[i]);
    if (!shard.ok()) return shard.status();
    const int64_t offset = manifest_.shards[i].row_begin;
    for (size_t c : recount[i]) {
      Pattern& pattern = candidates[c].pattern;
      pattern.support_set.OrWithShifted(
          shard->db->SupportSet(pattern.items, &recount_scratch), offset);
    }
    recount_scratch.Reset();
  }
  RecordArenaPeak(residency_.trace, recount_scratch);

  // Phase 3 — keep the globally frequent candidates. They are already in
  // pool order, so the exact pool is positionally identical to
  // BuildInitialPool's.
  std::vector<Pattern> pool;
  for (Candidate& candidate : candidates) {
    candidate.pattern.support = candidate.pattern.support_set.Count();
    if (candidate.pattern.support >= min_support) {
      pool.push_back(std::move(candidate.pattern));
    }
  }
  candidates = {};
  if (pool.empty()) {
    return Status::FailedPrecondition(
        "no globally frequent patterns at min_support_count " +
        std::to_string(min_support));
  }
  stitch_timer.Stop();

  // Phase 4 — the shared fusion pipeline. For kExact the pool is the
  // global initial pool, so the result is byte-identical to unsharded
  // MineColossal; for kFuse it is the union of per-shard colossal
  // patterns acting as core patterns.
  ColossalMinerOptions exec = *canonical;
  exec.num_threads = options.num_threads;
  PhaseTimer fusion_timer(residency_.trace, TracePhase::kFusion);
  return FuseColossalFromPool(total_rows, std::move(pool), exec, arena);
}

}  // namespace colossal
