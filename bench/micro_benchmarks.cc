// Micro benchmarks (google-benchmark) for the kernels Pattern-Fusion's
// wall-clock consists of: bitset algebra on support sets, support-set
// materialization, pattern-distance ball queries, single fusions, and
// the bounded miners used for initial pools.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bitvector.h"
#include "common/bitvector_kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pattern.h"
#include "core/pattern_distance.h"
#include "core/pattern_fusion.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/closed_miner.h"
#include "mining/eclat.h"
#include "mining/fpgrowth.h"
#include "obs/metrics.h"
#include "service/dataset_registry.h"
#include "service/mining_service.h"
#include "shard/shard_planner.h"
#include "shard/sharded_miner.h"

namespace colossal {
namespace {

Bitvector RandomBits(int64_t num_bits, double density, uint64_t seed) {
  Rng rng(seed);
  Bitvector bits(num_bits);
  for (int64_t i = 0; i < num_bits; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

void BM_BitvectorAndCount(benchmark::State& state) {
  const int64_t num_bits = state.range(0);
  const Bitvector a = RandomBits(num_bits, 0.4, 1);
  const Bitvector b = RandomBits(num_bits, 0.4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitvector::AndCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() * num_bits);
}
BENCHMARK(BM_BitvectorAndCount)->Arg(38)->Arg(4395)->Arg(100000);

void BM_JaccardDistance(benchmark::State& state) {
  const int64_t num_bits = state.range(0);
  const Bitvector a = RandomBits(num_bits, 0.4, 1);
  const Bitvector b = RandomBits(num_bits, 0.4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitvector::JaccardDistance(a, b));
  }
}
BENCHMARK(BM_JaccardDistance)->Arg(38)->Arg(4395);

void BM_SupportSet(benchmark::State& state) {
  LabeledDatabase labeled = MakeProgramTraceLike(1);
  const Itemset& path = labeled.planted[0];  // 44 items
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeled.db.SupportSet(path));
  }
}
BENCHMARK(BM_SupportSet);

void BM_BallQuery(benchmark::State& state) {
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(labeled.db, 30, 2);
  const Pattern center = MakePattern(labeled.db, labeled.planted[0]);
  const double radius = BallRadius(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BallQuery(*pool, center, radius));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pool->size()));
}
BENCHMARK(BM_BallQuery);

void BM_FuseOnce(benchmark::State& state) {
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  StatusOr<std::vector<Pattern>> pool = BuildInitialPool(labeled.db, 30, 2);
  const Pattern center = MakePattern(labeled.db, Itemset({0, 1}));
  std::vector<Pattern> pool_with_center = *pool;
  pool_with_center.push_back(center);
  const int64_t seed_index =
      static_cast<int64_t>(pool_with_center.size()) - 1;
  const std::vector<int64_t> ball =
      BallQuery(pool_with_center, center, BallRadius(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FuseOnce(pool_with_center, ball, seed_index, 30, 0.5));
  }
}
BENCHMARK(BM_FuseOnce);

void BM_AprioriPoolTrace(benchmark::State& state) {
  LabeledDatabase labeled = MakeProgramTraceLike(1);
  MinerOptions options;
  options.min_support_count = labeled.min_support_count;
  options.max_pattern_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineApriori(labeled.db, options));
  }
}
BENCHMARK(BM_AprioriPoolTrace)->Arg(2)->Arg(3);

void BM_EclatRandom(benchmark::State& state) {
  RandomDatabaseOptions db_options;
  db_options.num_transactions = 200;
  db_options.num_items = 24;
  db_options.density = 0.3;
  db_options.seed = 3;
  TransactionDatabase db = MakeRandomDatabase(db_options);
  MinerOptions options;
  options.min_support_count = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineEclat(db, options));
  }
}
BENCHMARK(BM_EclatRandom);

void BM_FpGrowthRandom(benchmark::State& state) {
  RandomDatabaseOptions db_options;
  db_options.num_transactions = 200;
  db_options.num_items = 24;
  db_options.density = 0.3;
  db_options.seed = 3;
  TransactionDatabase db = MakeRandomDatabase(db_options);
  MinerOptions options;
  options.min_support_count = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineFpGrowth(db, options));
  }
}
BENCHMARK(BM_FpGrowthRandom);

void BM_ClosedMicroarray(benchmark::State& state) {
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  MinerOptions options;
  options.min_support_count = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineClosed(labeled.db, options));
  }
}
BENCHMARK(BM_ClosedMicroarray);

// --- Bitvector kernels (scalar vs dispatched) -------------------------------
//
// Each benchmark takes Args({num_bits, force_scalar}): force_scalar 1
// pins the portable backend, 0 uses whatever the host dispatches (AVX2
// on the machines these baselines come from) — so the per-size speedup
// is the scalar/dispatched ratio at equal Arg(0). Sizes mirror the
// paper's datasets (38-row microarray, 4,395-row trace) plus a
// 100k-row stress size where the vector loops dominate.

void KernelSizes(benchmark::internal::Benchmark* bench) {
  for (int64_t num_bits : {38, 4395, 100000}) {
    bench->Args({num_bits, 0})->Args({num_bits, 1});
  }
}

class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force) { SetBitvectorForceScalar(force); }
  ~ForceScalarGuard() { SetBitvectorForceScalar(false); }
};

void BM_KernelAndCount(benchmark::State& state) {
  ForceScalarGuard guard(state.range(1) != 0);
  const int64_t num_bits = state.range(0);
  const Bitvector a = RandomBits(num_bits, 0.4, 1);
  const Bitvector b = RandomBits(num_bits, 0.4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitvector::AndCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() * num_bits);
}
BENCHMARK(BM_KernelAndCount)->Apply(KernelSizes);

void BM_KernelAndNone(benchmark::State& state) {
  ForceScalarGuard guard(state.range(1) != 0);
  const int64_t num_bits = state.range(0);
  // Sparse operands with no shared bits: the worst case (full scan —
  // any shared bit would early-exit).
  Bitvector a(num_bits);
  Bitvector b(num_bits);
  for (int64_t i = 0; i < num_bits; i += 2) {
    a.Set(i);
    if (i + 1 < num_bits) b.Set(i + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitvector::AndNone(a, b));
  }
  state.SetItemsProcessed(state.iterations() * num_bits);
}
BENCHMARK(BM_KernelAndNone)->Apply(KernelSizes);

void BM_KernelCount(benchmark::State& state) {
  ForceScalarGuard guard(state.range(1) != 0);
  const Bitvector a = RandomBits(state.range(0), 0.4, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelCount)->Apply(KernelSizes);

void BM_KernelAndWith(benchmark::State& state) {
  ForceScalarGuard guard(state.range(1) != 0);
  const Bitvector a = RandomBits(state.range(0), 0.4, 1);
  const Bitvector b = RandomBits(state.range(0), 0.4, 2);
  Bitvector dst = a;
  for (auto _ : state) {
    dst.AndWith(b);
    benchmark::DoNotOptimize(dst);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelAndWith)->Apply(KernelSizes);

void BM_KernelOrWithShifted(benchmark::State& state) {
  ForceScalarGuard guard(state.range(1) != 0);
  const int64_t num_bits = state.range(0);
  const Bitvector src = RandomBits(num_bits, 0.4, 1);
  Bitvector dst(num_bits + 137);  // offset 37: word shift + carry path
  for (auto _ : state) {
    dst.OrWithShifted(src, 37);
    benchmark::DoNotOptimize(dst);
  }
  state.SetItemsProcessed(state.iterations() * num_bits);
}
BENCHMARK(BM_KernelOrWithShifted)->Apply(KernelSizes);

// --- Arena vs heap mine -----------------------------------------------------
//
// The whole pipeline with (Arg 1) and without (Arg 0) a request arena:
// the delta is what replacing per-tidset heap allocations with bump
// allocation buys end to end. Output is byte-identical either way (the
// determinism tests hold the proof); arena_peak_kb reports the arena's
// high-water mark.

void BM_MineColossalArena(benchmark::State& state) {
  const bool use_arena = state.range(0) != 0;
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  ColossalMinerOptions options;
  options.min_support_count = 30;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 40;
  options.seed = 19;
  Arena arena;
  for (auto _ : state) {
    if (use_arena) {
      arena.Reset();
      benchmark::DoNotOptimize(MineColossal(labeled.db, options, &arena));
    } else {
      benchmark::DoNotOptimize(MineColossal(labeled.db, options));
    }
  }
  if (use_arena) {
    state.counters["arena_peak_kb"] =
        static_cast<double>(arena.high_water_bytes()) / 1024.0;
  }
}
BENCHMARK(BM_MineColossalArena)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- Request modes ----------------------------------------------------------
//
// The two request-grammar modes end to end. Run with
// --benchmark_filter='TopK|Constrained'.

// Top-k truncation vs. the equivalent full-K run: Arg is the requested
// top_k (0 = the k=40 baseline). The answer is a prefix of the
// baseline's, so the delta is pure result-shaping cost — it should be
// noise.
void BM_TopKMine(benchmark::State& state) {
  const int top_k = static_cast<int>(state.range(0));
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  ColossalMinerOptions options;
  options.min_support_count = 30;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 40;
  options.seed = 19;
  options.top_k = top_k;
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    benchmark::DoNotOptimize(MineColossal(labeled.db, options, &arena));
  }
}
BENCHMARK(BM_TopKMine)->Arg(0)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

// Constraint pushdown: Arg is how many of the lowest item ids are
// excluded. Excluded items are skipped before their Bitvectors are
// materialized, so time and arena_peak_kb both fall as the exclude
// list grows — the counter is the proof the skip happens in the pool
// miner, not in a post-filter.
void BM_ConstrainedMine(benchmark::State& state) {
  const int excluded = static_cast<int>(state.range(0));
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  ColossalMinerOptions options;
  options.min_support_count = 30;
  options.initial_pool_max_size = 2;
  options.tau = 0.5;
  options.k = 40;
  options.seed = 19;
  for (int i = 0; i < excluded; ++i) {
    options.constraints.exclude.push_back(static_cast<ItemId>(i));
  }
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    benchmark::DoNotOptimize(MineColossal(labeled.db, options, &arena));
  }
  state.counters["arena_peak_kb"] =
      static_cast<double>(arena.high_water_bytes()) / 1024.0;
}
BENCHMARK(BM_ConstrainedMine)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// --- Thread scaling ---------------------------------------------------------
// The fig10-style workload (microarray stand-in, pool bound 2, τ = 0.5,
// K = 100) at 1/2/4/N threads. Run with
// --benchmark_filter=ThreadScaling. Output is bit-identical across
// thread counts, so these measure pure speedup.
// The work runs on pool workers, not the benchmark thread, so every
// threaded bench times wall clock (UseRealTime): main-thread CPU time
// would shrink as workers take over and inflate the reported rates.

void ThreadArgs(benchmark::internal::Benchmark* bench) {
  const int hardware = ResolveNumThreads(0);
  for (int threads : {1, 2, 4}) bench->Arg(threads);
  if (hardware != 1 && hardware != 2 && hardware != 4) bench->Arg(hardware);
}

// K ball queries sharded across the pool of workers — the per-iteration
// scan the fusion engine parallelizes.
void BM_ThreadScalingBallQueries(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, 30, 2, PoolMiner::kApriori, 1);
  if (!pool.ok() || pool->empty()) {
    state.SkipWithError("initial pool unavailable");
    return;
  }
  const double radius = BallRadius(0.5);
  constexpr int64_t kCenters = 100;  // K in the fig10 configuration
  const int64_t pool_size = static_cast<int64_t>(pool->size());
  ThreadPool workers(threads);
  for (auto _ : state) {
    auto balls = ParallelMap(&workers, kCenters, [&](int64_t i) {
      return BallQuery(*pool, (*pool)[static_cast<size_t>(i % pool_size)],
                       radius);
    });
    benchmark::DoNotOptimize(balls);
  }
  state.SetItemsProcessed(state.iterations() * kCenters *
                          static_cast<int64_t>(pool->size()));
}
BENCHMARK(BM_ThreadScalingBallQueries)->Apply(ThreadArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// One full fusion iteration (seed draws + ball queries + fusions +
// retention) through the engine itself.
void BM_ThreadScalingFusionIteration(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  LabeledDatabase labeled = MakeMicroarrayLike(1);
  StatusOr<std::vector<Pattern>> pool =
      BuildInitialPool(labeled.db, 30, 2, PoolMiner::kApriori, 1);
  if (!pool.ok() || pool->empty()) {
    state.SkipWithError("initial pool unavailable");
    return;
  }
  PatternFusionOptions options;
  options.min_support_count = 30;
  options.tau = 0.5;
  options.k = 100;
  options.max_iterations = 1;
  options.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPatternFusion(labeled.db, *pool, options));
  }
}
BENCHMARK(BM_ThreadScalingFusionIteration)->Apply(ThreadArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Service layer ----------------------------------------------------------
// The request path of src/service/: what a request costs when it misses
// everything (disk load + index build + mine), when the dataset registry
// already holds the database, and when the result cache already holds the
// answer. Run with --benchmark_filter=Service; the ratio of interest is
// BM_ServiceMineCold / BM_ServiceResultCacheHit.

// One on-disk dataset pair shared by the service benches, written once.
struct ServiceBenchFixture {
  std::string fimi_path;
  std::string snapshot_path;
  MineRequest request;

  ServiceBenchFixture() {
    fimi_path = "/tmp/colossal_bench_service.fimi";
    snapshot_path = "/tmp/colossal_bench_service.snap";
    const TransactionDatabase db = MakeDiagPlus(24, 12).db;
    if (!WriteFimiFile(db, fimi_path).ok() ||
        !WriteSnapshotFile(db, snapshot_path).ok()) {
      std::abort();
    }
    request.dataset_path = fimi_path;
    request.options.sigma = -1.0;
    request.options.min_support_count = 12;
    request.options.initial_pool_max_size = 2;
    request.options.k = 40;
  }
};

const ServiceBenchFixture& ServiceFixture() {
  static const ServiceBenchFixture* fixture = new ServiceBenchFixture();
  return *fixture;
}

// Text ingestion vs. snapshot ingestion of the same trace-shaped
// dataset (4,395 × 57): the snapshot skips parsing and the vertical
// index build.
void BM_ServiceFimiParse(benchmark::State& state) {
  const std::string text = ToFimiString(MakeProgramTraceLike(1).db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseFimi(text));
  }
}
BENCHMARK(BM_ServiceFimiParse)->Unit(benchmark::kMillisecond);

void BM_ServiceSnapshotParse(benchmark::State& state) {
  const std::string data = ToSnapshotString(MakeProgramTraceLike(1).db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseSnapshot(data));
  }
}
BENCHMARK(BM_ServiceSnapshotParse)->Unit(benchmark::kMillisecond);

// Dataset acquisition: a cold registry (disk load every time) vs. a
// warm registry handing out the shared immutable database.
void BM_ServiceRegistryColdLoad(benchmark::State& state) {
  const ServiceBenchFixture& fixture = ServiceFixture();
  for (auto _ : state) {
    DatasetRegistry registry;
    benchmark::DoNotOptimize(registry.Get(fixture.fimi_path));
  }
}
BENCHMARK(BM_ServiceRegistryColdLoad);

void BM_ServiceRegistryHit(benchmark::State& state) {
  const ServiceBenchFixture& fixture = ServiceFixture();
  DatasetRegistry registry;
  if (!registry.Get(fixture.fimi_path).ok()) {
    state.SkipWithError("dataset unavailable");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Get(fixture.fimi_path));
  }
}
BENCHMARK(BM_ServiceRegistryHit);

// End-to-end request cost: everything cold (fresh service per
// iteration: disk load + index build + Pattern-Fusion) vs. a result
// cache hit on a warm service.
void BM_ServiceMineCold(benchmark::State& state) {
  const ServiceBenchFixture& fixture = ServiceFixture();
  for (auto _ : state) {
    MiningService service;
    MiningResponse response = service.Mine(fixture.request);
    if (!response.status.ok()) {
      state.SkipWithError("request failed");
      return;
    }
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServiceMineCold)->Unit(benchmark::kMillisecond);

void BM_ServiceResultCacheHit(benchmark::State& state) {
  const ServiceBenchFixture& fixture = ServiceFixture();
  MiningService service;
  if (!service.Mine(fixture.request).status.ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (auto _ : state) {
    MiningResponse response = service.Mine(fixture.request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServiceResultCacheHit);

// --- Sharding ---------------------------------------------------------------
// The sharded mining path of src/shard/: the stitch kernel, manifest
// planning/writing, and exact sharded mining vs. the unsharded
// reference at several shard counts. Run with
// --benchmark_filter=Shard.

void BM_ShardStitchSupportSet(benchmark::State& state) {
  // One OrWithShifted of a 1/8-size shard slice into a global support
  // set, at a deliberately word-misaligned offset.
  const int64_t num_bits = state.range(0);
  const Bitvector local = RandomBits(num_bits / 8, 0.4, 7);
  Bitvector global(num_bits);
  const int64_t offset = num_bits / 3 + 1;
  for (auto _ : state) {
    global.OrWithShifted(local, offset);
    benchmark::DoNotOptimize(global);
  }
}
BENCHMARK(BM_ShardStitchSupportSet)->Arg(4395)->Arg(100000);

// One shared sharded fixture: a trace-shaped dataset written once as
// manifests of 1/2/4 shards.
struct ShardBenchFixture {
  TransactionDatabase db;
  std::string manifests[3];  // 1, 2, 4 shards
  ColossalMinerOptions options;

  ShardBenchFixture() : db(MakeDiagPlus(24, 12).db) {
    const int counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      ShardPlanOptions plan_options;
      plan_options.num_shards = counts[i];
      StatusOr<std::vector<ShardRange>> plan = PlanShards(db, plan_options);
      StatusOr<ShardWriteResult> written = plan.ok()
          ? WriteShardedSnapshots(db, *plan, "/tmp",
                                  "colossal_bench_shard_" +
                                      std::to_string(counts[i]))
          : StatusOr<ShardWriteResult>(plan.status());
      if (!written.ok()) std::abort();
      manifests[i] = written->manifest_path;
    }
    options.sigma = -1.0;
    options.min_support_count = 12;
    options.initial_pool_max_size = 2;
    options.k = 40;
  }
};

const ShardBenchFixture& ShardFixture() {
  static const ShardBenchFixture* fixture = new ShardBenchFixture();
  return *fixture;
}

// Disk shard loader for the sharded-mining benches (cold loads, as a
// cold service would pay them).
ShardLoader BenchShardLoader() {
  return [](const std::string& path,
            int64_t /*estimated_bytes*/) -> StatusOr<LoadedShard> {
    StatusOr<TransactionDatabase> db = ReadSnapshotFile(path);
    if (!db.ok()) return db.status();
    LoadedShard shard;
    shard.fingerprint = FingerprintDatabase(*db);
    shard.db = std::make_shared<const TransactionDatabase>(*std::move(db));
    return shard;
  };
}

void BM_ShardPlanAndWrite(benchmark::State& state) {
  const ShardBenchFixture& fixture = ShardFixture();
  ShardPlanOptions plan_options;
  plan_options.num_shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    StatusOr<std::vector<ShardRange>> plan =
        PlanShards(fixture.db, plan_options);
    if (!plan.ok()) {
      state.SkipWithError("planning failed");
      return;
    }
    benchmark::DoNotOptimize(
        WriteShardedSnapshots(fixture.db, *plan, "/tmp",
                              "colossal_bench_shard_rewrite"));
  }
}
BENCHMARK(BM_ShardPlanAndWrite)->Arg(4)->Unit(benchmark::kMillisecond);

// Exact sharded mining (disk shard loads included, as a cold service
// would pay them) vs. the unsharded in-memory reference mine. Arg is
// the shard count; 1 isolates the sharding machinery's own overhead.
void BM_ShardedMineExact(benchmark::State& state) {
  const ShardBenchFixture& fixture = ShardFixture();
  const int index = state.range(0) == 1 ? 0 : state.range(0) == 2 ? 1 : 2;
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile(fixture.manifests[index]);
  if (!manifest.ok()) {
    state.SkipWithError("manifest unavailable");
    return;
  }
  ShardedMiner miner(*manifest, BenchShardLoader());
  for (auto _ : state) {
    StatusOr<ColossalMiningResult> result =
        miner.Mine(fixture.options, ShardMergeMode::kExact);
    if (!result.ok()) {
      state.SkipWithError("mine failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ShardedMineExact)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Fan-out sweep: the 4-shard manifest mined cold at shard-parallelism
// {1, 2, 4}. On multi-core the cold wall-time should drop as
// parallelism grows (flat on a single-CPU host); output is
// byte-identical throughout, asserted by sharded_miner_test. Run with
// --benchmark_filter=ShardedMineFanOut.
void BM_ShardedMineFanOut(benchmark::State& state) {
  const ShardBenchFixture& fixture = ShardFixture();
  StatusOr<ShardManifest> manifest =
      ReadShardManifestFile(fixture.manifests[2]);  // 4 shards
  if (!manifest.ok()) {
    state.SkipWithError("manifest unavailable");
    return;
  }
  ShardedMiner miner(*manifest, BenchShardLoader());
  ColossalMinerOptions options = fixture.options;
  options.shard_parallelism = static_cast<int>(state.range(0));
  for (auto _ : state) {
    StatusOr<ColossalMiningResult> result =
        miner.Mine(options, ShardMergeMode::kExact);
    if (!result.ok()) {
      state.SkipWithError("mine failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ShardedMineFanOut)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardedMineUnshardedReference(benchmark::State& state) {
  const ShardBenchFixture& fixture = ShardFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineColossal(fixture.db, fixture.options));
  }
}
BENCHMARK(BM_ShardedMineUnshardedReference)->Unit(benchmark::kMillisecond);

// --- Metrics ----------------------------------------------------------------
// The cost of always-on observability: one counter increment and one
// histogram record are what every request pays per metric touched, so
// the per-op overhead here bounds what tracing adds to the hot path.

void BM_MetricsCounterIncrement(benchmark::State& state) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("bench_counter", "bench");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsCounterIncrementContended(benchmark::State& state) {
  static Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterIncrementContended)->ThreadRange(1, 4);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("bench_seconds", "bench", 1e-9);
  // A realistic spread of latencies so the bucket index path is not
  // branch-predicted into a single bucket.
  int64_t value = 1;
  for (auto _ : state) {
    histogram->Record(value);
    value = value * 2862933555777941757LL + 3037000493LL;
    value &= (int64_t{1} << 40) - 1;
  }
  benchmark::DoNotOptimize(histogram->TotalCount());
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_MetricsRenderText(benchmark::State& state) {
  // A registry shaped like the serving stack's: the full metric set the
  // `metrics` word renders per scrape.
  MiningService service;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.metrics().RenderText());
  }
}
BENCHMARK(BM_MetricsRenderText);

void BM_MetricsFlightRecorderRecord(benchmark::State& state) {
  // The always-on per-request cost of the flight recorder: one ring
  // publish of a fully-populated record. Budget class: tens of ns, like
  // Histogram::Record — this runs once per completed request. The
  // recorder is shared across benchmark threads so the multi-threaded
  // runs measure real cursor contention.
  static FlightRecorder recorder;
  FlightRecord record;
  record.start_unix_nanos = 1722500000000000000LL;
  record.dataset_fingerprint = 0x9e3779b97f4a7c15ull;
  record.options_hash = 0x2545f4914f6cdd1dull;
  record.response_bytes = 65536;
  record.total_nanos = 12345678;
  for (int p = 0; p < kNumTracePhases; ++p) record.phase_nanos[p] = 1000 * p;
  SetFlightField(record.transport, "tcp");
  SetFlightField(record.source, "mined");
  SetFlightField(record.status, "OK");
  SetFlightField(record.dataset, "/data/benchmarks/diag_plus_4096.fimi");
  for (auto _ : state) {
    record.id = recorder.MintId();
    recorder.Record(record);
  }
  benchmark::DoNotOptimize(recorder.recorded());
}
BENCHMARK(BM_MetricsFlightRecorderRecord)->ThreadRange(1, 4);

}  // namespace
}  // namespace colossal

BENCHMARK_MAIN();
