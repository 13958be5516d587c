#include "core/colossal_miner.h"

#include <utility>

namespace colossal {

StatusOr<ColossalMinerOptions> CanonicalizeMinerOptionsForSize(
    int64_t num_transactions, const ColossalMinerOptions& options) {
  ColossalMinerOptions canonical = options;
  if (canonical.sigma >= 0.0) {
    if (canonical.sigma > 1.0) {
      return Status::InvalidArgument("sigma must be in [0, 1]");
    }
    canonical.min_support_count =
        MinSupportCountFor(num_transactions, canonical.sigma);
    if (canonical.min_support_count < 1) canonical.min_support_count = 1;
    canonical.sigma = -1.0;
  }
  canonical.num_threads = 0;
  canonical.shard_parallelism = 0;
  canonical.pool_miner = PoolMiner::kApriori;
  Status constraints_ok = CanonicalizeConstraints(&canonical.constraints);
  if (!constraints_ok.ok()) return constraints_ok;
  if (canonical.top_k < 0) {
    return Status::InvalidArgument("top_k must be >= 0 (0 = off)");
  }
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
  return canonical;
}

StatusOr<ColossalMinerOptions> CanonicalizeMinerOptions(
    const TransactionDatabase& db, const ColossalMinerOptions& options) {
  return CanonicalizeMinerOptionsForSize(db.num_transactions(), options);
}

StatusOr<ColossalMiningResult> FuseColossalFromPool(
    int64_t num_transactions, std::vector<Pattern> initial_pool,
    const ColossalMinerOptions& options, Arena* arena) {
  PatternFusionOptions fusion_options;
  fusion_options.arena = arena;
  fusion_options.min_support_count = options.min_support_count;
  fusion_options.tau = options.tau;
  fusion_options.k = options.top_k > 0 ? options.top_k : options.k;
  fusion_options.max_iterations = options.max_iterations;
  fusion_options.fusion_attempts_per_seed = options.fusion_attempts_per_seed;
  fusion_options.max_superpatterns_per_seed =
      options.max_superpatterns_per_seed;
  fusion_options.seed = options.seed;
  fusion_options.num_threads = options.num_threads;
  fusion_options.max_pattern_items = options.constraints.max_len;

  ColossalMiningResult result;
  result.initial_pool_size = static_cast<int64_t>(initial_pool.size());

  FusionEngine engine(num_transactions, fusion_options);
  StatusOr<PatternFusionResult> fusion = engine.Run(std::move(initial_pool));
  if (!fusion.ok()) return fusion.status();

  result.patterns = std::move(fusion->patterns);
  // Result shaping: min_len filters the sorted (size-descending)
  // answer — small patterns had to stay in the pool as fusion building
  // blocks, so this is the one constraint applied after the fact — and
  // top-k keeps the k largest under the same order. Both run before
  // the detach loop so dropped patterns never cost a heap copy check.
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
  // The fusion engine already copies its answer onto the heap; this
  // detach is the belt-and-suspenders guarantee that nothing escaping
  // into results (or the service's result cache) references `arena`.
  for (Pattern& pattern : result.patterns) {
    pattern.support_set.DetachFromArena();
  }
  result.iterations = static_cast<int>(fusion->iterations.size());
  result.converged = fusion->converged;
  result.iteration_stats = std::move(fusion->iterations);
  return result;
}

StatusOr<ColossalMiningResult> MineColossal(const TransactionDatabase& db,
                                            const ColossalMinerOptions& options,
                                            Arena* arena, RequestTrace* trace) {
  StatusOr<ColossalMinerOptions> canonical =
      CanonicalizeMinerOptions(db, options);
  if (!canonical.ok()) return canonical.status();

  // Execution knobs (pool miner, thread count) come from the caller:
  // canonicalization resets them.
  PhaseTimer pool_timer(trace, TracePhase::kPoolMine);
  MinerStats pool_stats;
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(
      db, canonical->min_support_count, canonical->initial_pool_max_size,
      options.pool_miner, options.num_threads, arena,
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
