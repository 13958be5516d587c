// colossal_cli — command-line front end to the library.
//
// Subcommands:
//   generate  --dataset diag|diagplus|fig3|trace|microarray --out FILE
//             [--n N] [--extra R] [--seed S]
//       Writes a synthetic dataset in FIMI format.
//   stats     --in FILE [--format fimi|matrix|snapshot|auto]
//       Prints summary statistics of a dataset.
//   mine      --in FILE --algo pf|apriori|eclat|fpgrowth|closed|maximal|topk
//             (--sigma F | --min-support N)
//             [--format fimi|matrix|snapshot|auto]
//             [--out FILE] [--tau F] [--k N] [--pool-size N] [--seed S]
//             [--max-size N] [--budget N] [--min-length N] [--threads N]
//       --threads 0 (the default) uses one worker per hardware thread,
//       at most 512; mining output is identical for every thread count.
//       The flag drives pf's fusion and eclat; pf's pool mining,
//       apriori and the other miners run serially regardless.
//       Mines FILE and prints (or writes) the result in FIMI output
//       format: "item item ... (support)".
//   snapshot  --in FILE --out FILE [--format fimi|matrix|snapshot|auto]
//       Converts a dataset to the binary snapshot format (rows +
//       vertical index + content fingerprint; see data/snapshot_io.h),
//       the load-once form the mining service prefers.
//   shard     --in FILE --out-dir DIR (--shards N | --max-shard-mb N)
//             [--name NAME] [--format fimi|matrix|snapshot|auto]
//       Partitions a dataset into contiguous row-range shards, writes
//       one snapshot per shard plus a manifest (DIR/NAME.manifest; NAME
//       defaults to the input's basename) tying them together. The
//       mining service admits the manifest directly: request lines with
//       --in DIR/NAME.manifest [--shards exact|fuse]
//       [--shard-parallelism N] mine it shard by shard under the
//       registry budget, fanning phase 1 across shards up to what the
//       budget admits (see shard/sharded_miner.h).
//   evaluate  --mined FILE --reference FILE [--min-size N]
//       Computes the paper's approximation error Δ(A_P^Q) of the mined
//       set against a reference set (both in FIMI output format).
//
// Every subcommand accepts --help and prints its flag list; unknown
// flags are rejected with the list of known ones.
//
// Examples:
//   colossal_cli generate --dataset diagplus --n 40 --extra 20 --out d.fimi
//   colossal_cli mine --in d.fimi --algo pf --min-support 20 --k 100
//   colossal_cli mine --in d.fimi --algo closed --min-support 20 --out q.txt
//   colossal_cli snapshot --in d.fimi --out d.snap
//   colossal_cli shard --in d.fimi --out-dir shards --shards 4
//   colossal_cli evaluate --mined p.txt --reference q.txt --min-size 20

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/thread_pool.h"
#include "core/colossal_miner.h"
#include "core/evaluation.h"
#include "data/dataset_io.h"
#include "data/dataset_stats.h"
#include "data/generators.h"
#include "data/snapshot_io.h"
#include "mining/apriori.h"
#include "mining/closed_miner.h"
#include "mining/eclat.h"
#include "mining/fpgrowth.h"
#include "mining/maximal_miner.h"
#include "mining/result_io.h"
#include "mining/topk_miner.h"
#include "shard/shard_planner.h"

namespace colossal {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Per-subcommand usage, printed on --help (exit 0) and bad flags.
constexpr const char kGenerateUsage[] =
    "usage: colossal_cli generate --dataset diag|diagplus|fig3|trace|"
    "microarray\n"
    "           --out FILE [--n N] [--extra R] [--seed S]\n";
constexpr const char kStatsUsage[] =
    "usage: colossal_cli stats --in FILE [--format fimi|matrix|snapshot|"
    "auto]\n";
constexpr const char kMineUsage[] =
    "usage: colossal_cli mine --in FILE\n"
    "           --algo pf|apriori|eclat|fpgrowth|closed|maximal|topk\n"
    "           (--sigma F | --min-support N)\n"
    "           [--format fimi|matrix|snapshot|auto] [--out FILE]\n"
    "           [--tau F] [--k N] [--pool-size N] [--seed S] [--max-size N]\n"
    "           [--budget N] [--min-length N] [--threads N]\n"
    "  --threads N   worker threads for pf's fusion and for eclat, at\n"
    "                most 512 (0 = one per hardware thread; output is\n"
    "                identical for every value)\n";
constexpr const char kSnapshotUsage[] =
    "usage: colossal_cli snapshot --in FILE --out FILE\n"
    "           [--format fimi|matrix|snapshot|auto]\n";
constexpr const char kShardUsage[] =
    "usage: colossal_cli shard --in FILE --out-dir DIR\n"
    "           (--shards N | --max-shard-mb N) [--name NAME]\n"
    "           [--format fimi|matrix|snapshot|auto]\n"
    "writes one snapshot per row-range shard plus DIR/NAME.manifest\n"
    "(NAME defaults to the input's basename); serve the manifest with\n"
    "colossal_serve request lines: --in DIR/NAME.manifest\n"
    "[--shards exact|fuse] [--shard-parallelism N]\n";
constexpr const char kEvaluateUsage[] =
    "usage: colossal_cli evaluate --mined FILE --reference FILE "
    "[--min-size N]\n";

// Handles --help / unknown flags uniformly: returns a non-null exit code
// pointer semantics via optional-like int; -1 means "continue".
int HandleCommonFlags(const Args& args, const char* usage,
                      const std::vector<std::string>& known) {
  if (args.HelpRequested()) {
    std::fputs(usage, stdout);
    return 0;
  }
  Status status = args.CheckKnown(known);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n%s", status.ToString().c_str(), usage);
    return 1;
  }
  return -1;
}

// Unwraps a StatusOr flag value or returns from the caller with exit
// code 1. Usage: ASSIGN_OR_FAIL(const int64_t n, args.GetInt("n", 40));
#define COLOSSAL_CONCAT_INNER(a, b) a##b
#define COLOSSAL_CONCAT(a, b) COLOSSAL_CONCAT_INNER(a, b)
#define ASSIGN_OR_FAIL(declaration, expression)                     \
  auto COLOSSAL_CONCAT(maybe_, __LINE__) = (expression);            \
  if (!COLOSSAL_CONCAT(maybe_, __LINE__).ok()) {                    \
    return Fail(COLOSSAL_CONCAT(maybe_, __LINE__).status());        \
  }                                                                 \
  declaration = std::move(COLOSSAL_CONCAT(maybe_, __LINE__)).value()

int RunGenerate(const Args& args) {
  const int common = HandleCommonFlags(
      args, kGenerateUsage, {"dataset", "out", "n", "extra", "seed"});
  if (common >= 0) return common;
  const std::string dataset = args.GetString("dataset");
  const std::string out = args.GetString("out");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("generate requires --out"));
  }
  ASSIGN_OR_FAIL(const int64_t seed, args.GetInt("seed", 42));
  ASSIGN_OR_FAIL(const int64_t n, args.GetInt("n", 40));
  ASSIGN_OR_FAIL(const int64_t extra, args.GetInt("extra", 20));

  TransactionDatabase db;
  if (dataset == "diag") {
    db = MakeDiag(static_cast<int>(n));
  } else if (dataset == "diagplus") {
    db = MakeDiagPlus(static_cast<int>(n), static_cast<int>(extra)).db;
  } else if (dataset == "fig3") {
    db = MakePaperFigure3();
  } else if (dataset == "trace") {
    db = MakeProgramTraceLike(static_cast<uint64_t>(seed)).db;
  } else if (dataset == "microarray") {
    db = MakeMicroarrayLike(static_cast<uint64_t>(seed)).db;
  } else {
    return Fail(Status::InvalidArgument(
        "unknown --dataset '" + dataset +
        "' (want diag|diagplus|fig3|trace|microarray)"));
  }
  Status written = WriteFimiFile(db, out);
  if (!written.ok()) return Fail(written);
  std::printf("wrote %lld transactions to %s\n",
              static_cast<long long>(db.num_transactions()), out.c_str());
  return 0;
}

// Loads --in honouring --format: fimi, matrix (binary 0/1 matrices à la
// discretized microarrays), snapshot, or auto (the default: sniff the
// snapshot magic, else FIMI).
StatusOr<TransactionDatabase> LoadDatabase(const Args& args) {
  return LoadDatabaseFile(args.GetString("in"),
                          args.GetString("format", "auto"));
}

int RunStats(const Args& args) {
  const int common = HandleCommonFlags(args, kStatsUsage, {"in", "format"});
  if (common >= 0) return common;
  StatusOr<TransactionDatabase> db = LoadDatabase(args);
  if (!db.ok()) return Fail(db.status());
  std::printf("%s\n", StatsToString(ComputeStats(*db)).c_str());
  return 0;
}

int RunSnapshot(const Args& args) {
  const int common =
      HandleCommonFlags(args, kSnapshotUsage, {"in", "out", "format"});
  if (common >= 0) return common;
  const std::string out = args.GetString("out");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("snapshot requires --out"));
  }
  StatusOr<TransactionDatabase> db = LoadDatabase(args);
  if (!db.ok()) return Fail(db.status());
  Status written = WriteSnapshotFile(*db, out);
  if (!written.ok()) return Fail(written);
  std::printf("wrote snapshot of %lld transactions (fingerprint %016llx) "
              "to %s\n",
              static_cast<long long>(db->num_transactions()),
              static_cast<unsigned long long>(FingerprintDatabase(*db)),
              out.c_str());
  return 0;
}

int RunShard(const Args& args) {
  const int common = HandleCommonFlags(
      args, kShardUsage,
      {"in", "out-dir", "shards", "max-shard-mb", "name", "format"});
  if (common >= 0) return common;
  const std::string out_dir = args.GetString("out-dir");
  if (out_dir.empty()) {
    return Fail(Status::InvalidArgument("shard requires --out-dir"));
  }
  StatusOr<TransactionDatabase> db = LoadDatabase(args);
  if (!db.ok()) return Fail(db.status());

  ASSIGN_OR_FAIL(const int64_t shards, args.GetInt("shards", 0));
  ASSIGN_OR_FAIL(const int64_t max_shard_mb, args.GetInt("max-shard-mb", 0));
  if (shards < 0 || shards > std::numeric_limits<int>::max() ||
      max_shard_mb < 0) {
    return Fail(Status::InvalidArgument(
        "--shards and --max-shard-mb must be positive"));
  }
  ShardPlanOptions plan_options;
  plan_options.num_shards = static_cast<int>(shards);
  plan_options.max_shard_bytes = max_shard_mb * (int64_t{1} << 20);
  StatusOr<std::vector<ShardRange>> plan = PlanShards(*db, plan_options);
  if (!plan.ok()) return Fail(plan.status());

  // Default the manifest name to the input's basename sans extension.
  std::string name = args.GetString("name");
  if (name.empty()) {
    name = args.GetString("in");
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    const size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  }

  StatusOr<ShardWriteResult> written =
      WriteShardedSnapshots(*db, *plan, out_dir, name);
  if (!written.ok()) return Fail(written.status());
  for (size_t i = 0; i < written->manifest.shards.size(); ++i) {
    const ShardInfo& shard = written->manifest.shards[i];
    std::printf("shard %04zu rows [%lld, %lld) fingerprint %016llx %s\n", i,
                static_cast<long long>(shard.row_begin),
                static_cast<long long>(shard.row_end),
                static_cast<unsigned long long>(shard.fingerprint),
                written->shard_paths[i].c_str());
  }
  std::printf(
      "wrote %zu shard(s) of %lld transactions (parent fingerprint %016llx) "
      "to %s\n",
      written->manifest.shards.size(),
      static_cast<long long>(written->manifest.num_transactions),
      static_cast<unsigned long long>(written->manifest.parent_fingerprint),
      written->manifest_path.c_str());
  return 0;
}

int EmitResult(const Args& args, const std::vector<FrequentItemset>& patterns,
               bool budget_exceeded) {
  if (budget_exceeded) {
    std::fprintf(stderr,
                 "warning: work budget exceeded; result is incomplete\n");
  }
  const std::string out = args.GetString("out");
  if (out.empty()) {
    std::fputs(PatternsToString(patterns).c_str(), stdout);
  } else {
    Status written = WritePatternsFile(patterns, out);
    if (!written.ok()) return Fail(written);
    std::printf("wrote %zu patterns to %s\n", patterns.size(), out.c_str());
  }
  return 0;
}

int RunMine(const Args& args) {
  const int common = HandleCommonFlags(
      args, kMineUsage,
      {"in", "algo", "sigma", "min-support", "out", "tau", "k", "pool-size",
       "seed", "max-size", "budget", "min-length", "format", "threads"});
  if (common >= 0) return common;
  StatusOr<TransactionDatabase> db = LoadDatabase(args);
  if (!db.ok()) return Fail(db.status());

  ASSIGN_OR_FAIL(int64_t min_support, args.GetInt("min-support", 0));
  if (args.Has("sigma")) {
    ASSIGN_OR_FAIL(const double sigma, args.GetDouble("sigma", 0.0));
    if (sigma < 0.0 || sigma > 1.0) {
      return Fail(Status::InvalidArgument("--sigma must be in [0, 1]"));
    }
    min_support = db->MinSupportCount(sigma);
  }
  if (min_support < 1) {
    return Fail(Status::InvalidArgument(
        "need --min-support N or --sigma F yielding a count >= 1"));
  }

  ASSIGN_OR_FAIL(const int64_t k, args.GetInt("k", 100));
  ASSIGN_OR_FAIL(const int64_t budget, args.GetInt("budget", 0));
  ASSIGN_OR_FAIL(const int64_t max_size, args.GetInt("max-size", 0));
  ASSIGN_OR_FAIL(const int64_t threads, args.GetInt("threads", 0));
  if (threads < 0 || threads > kMaxThreads) {
    return Fail(Status::InvalidArgument(
        "--threads must be in [0, " + std::to_string(kMaxThreads) +
        "] (0 = auto)"));
  }

  const std::string algo = args.GetString("algo");
  if (algo == "pf") {
    ASSIGN_OR_FAIL(const double tau, args.GetDouble("tau", 0.5));
    ASSIGN_OR_FAIL(const int64_t pool_size, args.GetInt("pool-size", 3));
    ASSIGN_OR_FAIL(const int64_t seed, args.GetInt("seed", 1));
    ColossalMinerOptions options;
    options.min_support_count = min_support;
    options.tau = tau;
    options.k = static_cast<int>(k);
    options.initial_pool_max_size = static_cast<int>(pool_size);
    options.seed = static_cast<uint64_t>(seed);
    options.num_threads = static_cast<int>(threads);
    StatusOr<ColossalMiningResult> result = MineColossal(*db, options);
    if (!result.ok()) return Fail(result.status());
    std::fprintf(stderr,
                 "pattern-fusion: pool %lld, %d iteration(s), %zu patterns\n",
                 static_cast<long long>(result->initial_pool_size),
                 result->iterations, result->patterns.size());
    return EmitResult(args, ToFrequentItemsets(result->patterns), false);
  }
  if (algo == "topk") {
    ASSIGN_OR_FAIL(const int64_t min_length, args.GetInt("min-length", 1));
    TopKOptions options;
    options.k = static_cast<int>(k);
    options.min_pattern_size = static_cast<int>(min_length);
    options.min_support_count = min_support;
    options.max_nodes = budget;
    StatusOr<MiningResult> result = MineTopKClosed(*db, options);
    if (!result.ok()) return Fail(result.status());
    return EmitResult(args, result->patterns, result->stats.budget_exceeded);
  }

  MinerOptions options;
  options.min_support_count = min_support;
  options.max_pattern_size = static_cast<int>(max_size);
  options.max_nodes = budget;
  options.num_threads = static_cast<int>(threads);
  StatusOr<MiningResult> result = [&]() -> StatusOr<MiningResult> {
    if (algo == "apriori") return MineApriori(*db, options);
    if (algo == "eclat") return MineEclat(*db, options);
    if (algo == "fpgrowth") return MineFpGrowth(*db, options);
    if (algo == "closed") return MineClosed(*db, options);
    if (algo == "maximal") return MineMaximal(*db, options);
    return Status::InvalidArgument(
        "unknown --algo '" + algo +
        "' (want pf|apriori|eclat|fpgrowth|closed|maximal|topk)");
  }();
  if (!result.ok()) return Fail(result.status());
  SortPatterns(&result->patterns);
  return EmitResult(args, result->patterns, result->stats.budget_exceeded);
}

int RunEvaluate(const Args& args) {
  const int common = HandleCommonFlags(args, kEvaluateUsage,
                                       {"mined", "reference", "min-size"});
  if (common >= 0) return common;
  StatusOr<std::vector<FrequentItemset>> mined =
      ReadPatternsFile(args.GetString("mined"));
  if (!mined.ok()) return Fail(mined.status());
  StatusOr<std::vector<FrequentItemset>> reference =
      ReadPatternsFile(args.GetString("reference"));
  if (!reference.ok()) return Fail(reference.status());
  ASSIGN_OR_FAIL(const int64_t min_size, args.GetInt("min-size", 0));

  std::vector<Itemset> p;
  for (const FrequentItemset& pattern : *mined) {
    if (pattern.items.size() >= min_size) p.push_back(pattern.items);
  }
  std::vector<Itemset> q;
  for (const FrequentItemset& pattern : *reference) {
    if (pattern.items.size() >= min_size) q.push_back(pattern.items);
  }
  if (p.empty()) {
    return Fail(Status::InvalidArgument(
        "mined set is empty after the --min-size filter"));
  }
  const ApproximationReport report = EvaluateApproximation(p, q);
  std::printf("mined=%zu reference=%zu approximation_error=%.6f\n", p.size(),
              q.size(), report.error);
  return 0;
}

int Main(int argc, char** argv) {
  constexpr const char kTopUsage[] =
      "usage: colossal_cli generate|stats|mine|snapshot|shard|evaluate "
      "[--flag value]...\n"
      "run 'colossal_cli <subcommand> --help' for that subcommand's "
      "flags,\n"
      "or see the header of tools/colossal_cli.cc for details\n";
  if (argc < 2) {
    std::fputs(kTopUsage, stderr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kTopUsage, stdout);
    return 0;
  }
  StatusOr<Args> args = Args::Parse(argc, argv, 2);
  if (!args.ok()) return Fail(args.status());
  if (command == "generate") return RunGenerate(*args);
  if (command == "stats") return RunStats(*args);
  if (command == "mine") return RunMine(*args);
  if (command == "snapshot") return RunSnapshot(*args);
  if (command == "shard") return RunShard(*args);
  if (command == "evaluate") return RunEvaluate(*args);
  return Fail(Status::InvalidArgument(
      "unknown command '" + command +
      "' (want generate|stats|mine|snapshot|shard|evaluate)"));
}

}  // namespace
}  // namespace colossal

int main(int argc, char** argv) { return colossal::Main(argc, argv); }
