#include "core/pattern_fusion.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pattern_distance.h"
#include "mining/apriori.h"

namespace colossal {

namespace {

Status ValidateOptions(int64_t num_transactions,
                       const PatternFusionOptions& options) {
  if (options.min_support_count < 1 ||
      options.min_support_count > num_transactions) {
    return Status::InvalidArgument(
        "min_support_count out of range: " +
        std::to_string(options.min_support_count));
  }
  if (!(options.tau > 0.0 && options.tau <= 1.0)) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (options.k < 1) {
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
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = auto)");
  }
  if (options.max_pattern_items < 0) {
    return Status::InvalidArgument(
        "max_pattern_items must be >= 0 (0 = unbounded)");
  }
  return Status::Ok();
}

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

}  // namespace

FusionOutcome FuseOnce(const std::vector<Pattern>& pool,
                       const std::vector<int64_t>& ball_order,
                       int64_t seed_index, int64_t min_support_count,
                       double tau, int max_merges, Arena* arena,
                       int max_items) {
  const Pattern& seed = pool[static_cast<size_t>(seed_index)];
  FusionOutcome outcome;
  outcome.fused.items = seed.items;
  outcome.fused.support_set = Bitvector(seed.support_set, arena);
  outcome.fused.support = seed.support;
  outcome.merged_count = 1;

  // Invariant: every merged pattern β (including the seed) must be a
  // τ-core of the running fusion R, i.e. |D_R| ≥ τ·|D_β|. D_R only
  // shrinks, so it suffices to keep |D_R| ≥ τ·max merged support.
  int64_t max_merged_support = seed.support;

  // Item bitmap of R, so |R ∩ β| costs O(|β|) bit tests instead of a
  // merge-walk over R's items (which grow to ~100 on colossal data,
  // against 1–2 items per initial-pool member). It covers R's largest
  // item and grows on merge; an id past its end is not in R, so sparse
  // ids cost nothing until they are merged.
  std::vector<uint64_t> fused_bits;
  const auto mark_fused = [&fused_bits](const Itemset& items) {
    if (items.empty()) return;
    const size_t words = items.items().back() / 64 + 1;
    if (fused_bits.size() < words) fused_bits.resize(words, 0);
    for (ItemId item : items) {
      fused_bits[item / 64] |= uint64_t{1} << (item % 64);
    }
  };
  mark_fused(seed.items);

  for (int64_t index : ball_order) {
    if (max_merges != 0 && outcome.merged_count >= max_merges) break;
    if (index == seed_index) continue;
    const Pattern& member = pool[static_cast<size_t>(index)];
    int common_items = 0;
    for (ItemId item : member.items) {
      const size_t word = item / 64;
      common_items += word < fused_bits.size() &&
                      ((fused_bits[word] >> (item % 64)) & 1) != 0;
    }
    if (common_items == member.size()) {
      // Already absorbed; merging would change nothing.
      continue;
    }
    // |R ∪ β| by inclusion–exclusion — rejected before any support-set
    // work, so an over-long merge costs no Bitvector traffic.
    if (max_items != 0 &&
        outcome.fused.size() + member.size() - common_items > max_items) {
      continue;
    }
    // Popcount the would-be intersection first; the merged support set
    // is only materialized (in place) once the merge is accepted.
    const int64_t merged_support =
        Bitvector::AndCount(outcome.fused.support_set, member.support_set);
    if (merged_support < min_support_count) continue;
    const double needed =
        tau * static_cast<double>(
                  std::max(max_merged_support, member.support)) -
        1e-12;
    if (static_cast<double>(merged_support) < needed) continue;

    outcome.fused.items = Union(outcome.fused.items, member.items);
    mark_fused(member.items);
    outcome.fused.support_set.AndWith(member.support_set);
    outcome.fused.support = merged_support;
    max_merged_support = std::max(max_merged_support, member.support);
    ++outcome.merged_count;
  }
  return outcome;
}

FusionEngine::FusionEngine(int64_t num_transactions,
                           const PatternFusionOptions& options)
    : num_transactions_(num_transactions), options_(options) {}

FusionEngine::FusionEngine(const TransactionDatabase& db,
                           const PatternFusionOptions& options)
    : FusionEngine(db.num_transactions(), options) {}

std::vector<FusionCandidate> FusionEngine::ProcessSeed(
    const PatternPool& pool, int64_t seed_index, double radius,
    Rng& rng) const {
  const Pattern& seed = pool.pattern(seed_index);
  std::vector<int64_t> ball = BallQuery(pool.patterns(), seed, radius);

  // Fusion(α.CoreList): several shuffled greedy passes, each able to
  // reach a different super-pattern the ball's members are cores of.
  // The first pass saturates; later passes may stop at a random depth,
  // emitting the intermediate super-patterns the paper's subset-based
  // Fusion also generates.
  std::vector<FusionCandidate> candidates;
  for (int attempt = 0; attempt < options_.fusion_attempts_per_seed;
       ++attempt) {
    rng.Shuffle(ball);
    int max_merges = 0;
    if (options_.variable_merge_depth && attempt > 0) {
      max_merges = static_cast<int>(int64_t{2}
                                    << rng.UniformInt(0, 3));  // 2..16
    }
    FusionOutcome outcome =
        FuseOnce(pool.patterns(), ball, seed_index,
                 options_.min_support_count, options_.tau, max_merges,
                 options_.arena, options_.max_pattern_items);
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
                        options_.max_superpatterns_per_seed, rng);
}

StatusOr<PatternFusionResult> FusionEngine::Run(
    std::vector<Pattern> initial_pool) {
  Status valid = ValidateOptions(num_transactions_, options_);
  if (!valid.ok()) return valid;
  if (initial_pool.empty()) {
    return Status::InvalidArgument("initial pool is empty");
  }
  for (const Pattern& pattern : initial_pool) {
    if (pattern.support < options_.min_support_count) {
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

  const double radius = BallRadius(options_.tau);
  const int num_threads = ResolveNumThreads(options_.num_threads);
  // Spawned lazily, on the first iteration that has seeds to shard — an
  // already-converged run never pays the thread spawn.
  std::unique_ptr<ThreadPool> workers;

  // The master rng drives only the coordinator-side seed draws; all
  // per-seed randomness comes from streams derived below, so the draw
  // sequence is independent of how seeds are scheduled onto workers.
  Rng master(options_.seed);

  PatternPool pool;
  pool.AddAll(std::move(initial_pool));

  PatternFusionResult result;
  int previous_min_size = pool.MinPatternSize();

  for (int iteration = 0; iteration < options_.max_iterations; ++iteration) {
    // Algorithm 1, line 4: stop once the pool fits the answer budget.
    if (pool.size() <= options_.k) {
      result.converged = true;
      break;
    }

    // Algorithm 2, lines 2–7: draw K seeds, then shard the per-seed work
    // (ball query + fusions + retention) across the pool of workers.
    const std::vector<int64_t> seeds = pool.DrawSeeds(options_.k, master);
    if (num_threads > 1 && workers == nullptr) {
      workers = std::make_unique<ThreadPool>(num_threads);
    }
    const uint64_t iteration_stream =
        Rng::MixSeed(options_.seed, static_cast<uint64_t>(iteration));
    std::vector<std::vector<FusionCandidate>> per_seed = ParallelMap(
        workers.get(), static_cast<int64_t>(seeds.size()), [&](int64_t slot) {
          Rng slot_rng(
              Rng::MixSeed(iteration_stream, static_cast<uint64_t>(slot)));
          return ProcessSeed(pool, seeds[static_cast<size_t>(slot)], radius,
                             slot_rng);
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
    result.iterations.push_back({pool.size(), pool.MinPatternSize(),
                                 pool.MaxPatternSize()});
  }
  if (pool.size() <= options_.k) result.converged = true;

  // Copies the final pool out; Bitvector's copy constructor always
  // heap-allocates, so the returned patterns are independent of any
  // options_.arena backing the intra-run pool used.
  result.patterns = pool.patterns();
  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.items < b.items;
            });
  return result;
}

StatusOr<PatternFusionResult> RunPatternFusion(
    const TransactionDatabase& db, std::vector<Pattern> initial_pool,
    const PatternFusionOptions& options) {
  FusionEngine engine(db, options);
  return engine.Run(std::move(initial_pool));
}

StatusOr<std::vector<Pattern>> MinePoolPatterns(const TransactionDatabase& db,
                                                const MinerOptions& options,
                                                MinerStats* stats) {
  std::vector<Bitvector> support_sets;
  StatusOr<MiningResult> mined = MineApriori(db, options, &support_sets);
  if (!mined.ok()) return mined.status();
  if (stats != nullptr) *stats = mined->stats;
  std::vector<Pattern> patterns(mined->patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    patterns[i].items = std::move(mined->patterns[i].items);
    patterns[i].support_set = std::move(support_sets[i]);
    patterns[i].support = mined->patterns[i].support;
  }
  return patterns;
}

StatusOr<std::vector<Pattern>> BuildInitialPool(
    const TransactionDatabase& db, int64_t min_support_count,
    int max_pattern_size, PoolMiner /*miner*/, int /*num_threads*/,
    Arena* arena, const MiningConstraints& constraints, MinerStats* stats) {
  if (max_pattern_size < 1) {
    return Status::InvalidArgument("max_pattern_size must be >= 1");
  }
  MinerOptions miner_options;
  miner_options.min_support_count = min_support_count;
  miner_options.max_pattern_size = max_pattern_size;
  miner_options.arena = arena;
  miner_options.constraints = constraints;
  StatusOr<std::vector<Pattern>> pool =
      MinePoolPatterns(db, miner_options, stats);
  if (pool.ok() && pool->empty()) {
    return Status::FailedPrecondition(
        "no frequent patterns at min_support_count " +
        std::to_string(min_support_count));
  }
  return pool;
}

}  // namespace colossal
