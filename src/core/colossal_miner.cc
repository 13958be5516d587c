#include "core/colossal_miner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/arena.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pattern_distance.h"
#include "core/pattern_pool.h"

namespace colossal {

namespace {

// Every check a mine's options must pass. Canonicalization runs it
// before the execution knobs are erased, so the caller's num_threads and
// shard_parallelism are checked too; FuseColossalFromPool runs it for
// callers that bring their own pool.
Status ValidateMinerOptions(int64_t num_transactions,
                            const ColossalMinerOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = auto)");
  }
  if (options.shard_parallelism < 0) {
    return Status::InvalidArgument(
        "shard_parallelism must be >= 0 (0 = auto)");
  }
  if (options.min_support_count < 1 ||
      options.min_support_count > num_transactions) {
    return Status::InvalidArgument(
        "min_support_count out of range: " +
        std::to_string(options.min_support_count));
  }
  // Without it, 0 would mean "unbounded" to the complete pool miner —
  // the explosion the bounded pool exists to avoid.
  if (options.initial_pool_max_size < 1) {
    return Status::InvalidArgument("max_pattern_size must be >= 1");
  }
  if (!(options.tau > 0.0 && options.tau <= 1.0)) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (options.top_k < 0) {
    return Status::InvalidArgument("top_k must be >= 0 (0 = off)");
  }
  if ((options.top_k > 0 ? options.top_k : options.k) < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options.fusion_attempts_per_seed < 1) {
    return Status::InvalidArgument("fusion_attempts_per_seed must be >= 1");
  }
  if (options.max_superpatterns_per_seed < 1) {
    return Status::InvalidArgument("max_superpatterns_per_seed must be >= 1");
  }
  if (options.constraints.min_len < 0 || options.constraints.max_len < 0) {
    return Status::InvalidArgument("pattern length bounds must be >= 0");
  }
  return Status::Ok();
}

// A candidate super-pattern produced by fusing one seed's ball, with the
// weight used by the retention sampling.
struct FusionCandidate {
  Pattern pattern;
  int merged_count = 0;
};

// Keeps at most `cap` candidates, sampling without replacement with
// probability proportional to merged_count — the paper's heuristic that
// "βi with a larger core pattern set would retain with higher
// probability".
std::vector<FusionCandidate> SampleByWeight(
    std::vector<FusionCandidate> candidates, int cap, Rng& rng) {
  if (static_cast<int>(candidates.size()) <= cap) return candidates;
  std::vector<FusionCandidate> kept;
  kept.reserve(static_cast<size_t>(cap));
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (const FusionCandidate& candidate : candidates) {
    weights.push_back(static_cast<double>(candidate.merged_count));
  }
  for (int round = 0; round < cap; ++round) {
    const int64_t pick = rng.WeightedIndex(weights);
    kept.push_back(std::move(candidates[static_cast<size_t>(pick)]));
    weights[static_cast<size_t>(pick)] = 0.0;
  }
  return kept;
}

// One seed's work unit (Algorithm 2, lines 4–9): ball query, several
// shuffled greedy fusions, per-seed dedup, weighted retention. Pure
// with respect to shared state — reads the pool, draws only from the
// slot's own rng — which is what makes seed slots safe to shard.
std::vector<FusionCandidate> ProcessSeed(const PatternPool& pool,
                                         int64_t seed_index, double radius,
                                         const ColossalMinerOptions& options,
                                         bool variable_merge_depth,
                                         Arena* arena, Rng& rng) {
  const Pattern& seed = pool.pattern(seed_index);
  std::vector<int64_t> ball = BallQuery(pool.patterns(), seed, radius);

  // Fusion(α.CoreList): several shuffled greedy passes, each able to
  // reach a different super-pattern the ball's members are cores of.
  // The first pass saturates; later passes may stop at a random depth,
  // emitting the intermediate super-patterns the paper's subset-based
  // Fusion also generates.
  std::vector<FusionCandidate> candidates;
  for (int attempt = 0; attempt < options.fusion_attempts_per_seed;
       ++attempt) {
    rng.Shuffle(ball);
    int max_merges = 0;
    if (variable_merge_depth && attempt > 0) {
      max_merges = static_cast<int>(int64_t{2}
                                    << rng.UniformInt(0, 3));  // 2..16
    }
    FusionOutcome outcome =
        FuseOnce(pool.patterns(), ball, seed_index, options.min_support_count,
                 options.tau, max_merges, arena, options.constraints.max_len);
    bool duplicate = false;
    for (FusionCandidate& existing : candidates) {
      if (existing.pattern.items == outcome.fused.items) {
        existing.merged_count =
            std::max(existing.merged_count, outcome.merged_count);
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      candidates.push_back({std::move(outcome.fused), outcome.merged_count});
    }
  }
  return SampleByWeight(std::move(candidates),
                        options.max_superpatterns_per_seed, rng);
}

}  // namespace

StatusOr<ColossalMinerOptions> CanonicalizeMinerOptionsForSize(
    int64_t num_transactions, const ColossalMinerOptions& options) {
  ColossalMinerOptions canonical = options;
  // NaN fails both comparisons below, so it is refused by name rather
  // than silently read as "use min_support_count".
  if (std::isnan(canonical.sigma) || canonical.sigma > 1.0) {
    return Status::InvalidArgument("sigma must be in [0, 1]");
  }
  if (canonical.sigma >= 0.0) {
    canonical.min_support_count =
        MinSupportCountFor(num_transactions, canonical.sigma);
    if (canonical.min_support_count < 1) canonical.min_support_count = 1;
    canonical.sigma = -1.0;
  }
  Status constraints_ok = CanonicalizeConstraints(&canonical.constraints);
  if (!constraints_ok.ok()) return constraints_ok;
  // Top-k mode sizes the fusion pool by top_k: the requested k cannot
  // affect the answer, so erasing it here collapses every --k spelling
  // of the same top-k request onto one canonical form (and cache key).
  if (canonical.top_k > 0) canonical.k = canonical.top_k;
  // Patterns above max_len are never part of the answer, so the
  // complete pool need not mine beyond it — the pushdown that makes
  // max_len cheaper than post-filtering.
  if (canonical.constraints.max_len > 0 &&
      canonical.initial_pool_max_size > canonical.constraints.max_len) {
    canonical.initial_pool_max_size = canonical.constraints.max_len;
  }
  Status valid = ValidateMinerOptions(num_transactions, canonical);
  if (!valid.ok()) return valid;
  canonical.num_threads = 0;
  canonical.shard_parallelism = 0;
  return canonical;
}

StatusOr<ColossalMinerOptions> CanonicalizeMinerOptions(
    const TransactionDatabase& db, const ColossalMinerOptions& options) {
  return CanonicalizeMinerOptionsForSize(db.num_transactions(), options);
}

StatusOr<ColossalMiningResult> FuseColossalFromPool(
    int64_t num_transactions, std::vector<Pattern> initial_pool,
    const ColossalMinerOptions& options, Arena* arena,
    bool variable_merge_depth) {
  Status valid = ValidateMinerOptions(num_transactions, options);
  if (!valid.ok()) return valid;
  if (initial_pool.empty()) {
    return Status::InvalidArgument("initial pool is empty");
  }
  for (const Pattern& pattern : initial_pool) {
    if (pattern.support < options.min_support_count) {
      return Status::InvalidArgument(
          "initial pool pattern " + pattern.items.ToString() +
          " is infrequent (support " + std::to_string(pattern.support) + ")");
    }
    // BallQuery derives |D_α ∪ D_β| from the held supports.
    if (pattern.support != pattern.support_set.Count()) {
      return Status::InvalidArgument(
          "initial pool pattern " + pattern.items.ToString() +
          " has support " + std::to_string(pattern.support) +
          " but its support set holds " +
          std::to_string(pattern.support_set.Count()));
    }
  }
  // Declared before the pool, so the scratch it backs dies first.
  Arena own_arena;
  if (arena == nullptr) arena = &own_arena;

  const int k = options.top_k > 0 ? options.top_k : options.k;
  const double radius = BallRadius(options.tau);
  const int num_threads = ResolveNumThreads(options.num_threads);
  // Spawned lazily, on the first iteration that has seeds to shard — an
  // already-converged run never pays the thread spawn.
  std::unique_ptr<ThreadPool> workers;

  // The master rng drives only the coordinator-side seed draws; all
  // per-seed randomness comes from streams derived below, so the draw
  // sequence is independent of how seeds are scheduled onto workers.
  Rng master(options.seed);

  ColossalMiningResult result;
  result.initial_pool_size = static_cast<int64_t>(initial_pool.size());
  PatternPool pool;
  pool.AddAll(std::move(initial_pool));
  int previous_min_size = pool.MinPatternSize();

  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    // Algorithm 1, line 4: stop once the pool fits the answer budget.
    if (pool.size() <= k) break;

    // Algorithm 2, lines 2–7: draw K seeds, then shard the per-seed work
    // (ball query + fusions + retention) across the pool of workers.
    const std::vector<int64_t> seeds = pool.DrawSeeds(k, master);
    if (num_threads > 1 && workers == nullptr) {
      workers = std::make_unique<ThreadPool>(num_threads);
    }
    const uint64_t iteration_stream =
        Rng::MixSeed(options.seed, static_cast<uint64_t>(iteration));
    std::vector<std::vector<FusionCandidate>> per_seed = ParallelMap(
        workers.get(), static_cast<int64_t>(seeds.size()), [&](int64_t slot) {
          Rng slot_rng(
              Rng::MixSeed(iteration_stream, static_cast<uint64_t>(slot)));
          return ProcessSeed(pool, seeds[static_cast<size_t>(slot)], radius,
                             options, variable_merge_depth, arena, slot_rng);
        });

    // Merge in slot order: pool dedup (first writer wins) then stays
    // deterministic for any thread count.
    PatternPool next_pool;
    for (std::vector<FusionCandidate>& candidates : per_seed) {
      for (FusionCandidate& candidate : candidates) {
        next_pool.Add(std::move(candidate.pattern));
      }
    }

    COLOSSAL_CHECK(!next_pool.empty());
    // Lemma 5: fusion takes unions, so the smallest pattern size never
    // decreases across iterations.
    COLOSSAL_CHECK(next_pool.MinPatternSize() >= previous_min_size);
    previous_min_size = next_pool.MinPatternSize();

    pool = std::move(next_pool);
    result.iteration_stats.push_back(
        {pool.size(), pool.MinPatternSize(), pool.MaxPatternSize()});
  }
  result.iterations = static_cast<int>(result.iteration_stats.size());
  result.converged = pool.size() <= k;

  // Copies the final pool out: Bitvector's copy constructor always
  // heap-allocates, so nothing in the result (or the service's result
  // cache) references `arena`.
  result.patterns = pool.patterns();
  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.items < b.items;
            });
  // Result shaping: min_len filters the sorted (size-descending)
  // answer — small patterns had to stay in the pool as fusion building
  // blocks, so this is the one constraint applied after the fact — and
  // top-k keeps the k largest under the same order.
  if (options.constraints.min_len > 1) {
    while (!result.patterns.empty() &&
           result.patterns.back().size() < options.constraints.min_len) {
      result.patterns.pop_back();
    }
  }
  if (options.top_k > 0 &&
      result.patterns.size() > static_cast<size_t>(options.top_k)) {
    result.patterns.resize(static_cast<size_t>(options.top_k));
  }
  return result;
}

StatusOr<ColossalMiningResult> MineColossal(const TransactionDatabase& db,
                                            const ColossalMinerOptions& options,
                                            Arena* arena, RequestTrace* trace) {
  StatusOr<ColossalMinerOptions> canonical =
      CanonicalizeMinerOptions(db, options);
  if (!canonical.ok()) return canonical.status();
  // A caller without an arena gets one for this mine: the pool's join
  // runs much faster on arena-backed support sets than on the heap, and
  // FuseColossalFromPool copies the answer out before the arena dies.
  Arena own_arena;
  if (arena == nullptr) arena = &own_arena;

  // The thread count comes from the caller: canonicalization resets it.
  PhaseTimer pool_timer(trace, TracePhase::kPoolMine);
  MinerStats pool_stats;
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(
      db, canonical->min_support_count, canonical->initial_pool_max_size,
      PoolMiner::kApriori, options.num_threads, arena,
      canonical->constraints, &pool_stats);
  pool_timer.Stop();
  if (!pool.ok()) return pool.status();
  if (trace != nullptr) {
    trace->pool_nodes_expanded.fetch_add(pool_stats.nodes_expanded,
                                         std::memory_order_relaxed);
  }

  ColossalMinerOptions exec = *canonical;
  exec.num_threads = options.num_threads;
  PhaseTimer fusion_timer(trace, TracePhase::kFusion);
  return FuseColossalFromPool(db.num_transactions(), *std::move(pool), exec,
                              arena);
}

}  // namespace colossal
