#include "service/request.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/args.h"
#include "common/hash.h"
#include "common/thread_pool.h"

namespace colossal {

namespace {

// Hashes a double by bit pattern. Canonical options never hold a NaN
// (sigma is resolved away; tau is a plain parameter), so bit-pattern
// equality matches operator== on the struct.
uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Distinguishes the sharded miner's approximate kFuse results from the
// exact answer to the same canonical options in the result cache.
constexpr uint64_t kFuseModeSalt = 0x66757365u;  // "fuse"

// Version salt for the mode-extension fields (top_k, constraints).
// Folded only when one of them is non-default, so every legacy request
// keeps its historical hash while extended requests occupy a disjoint
// key space.
constexpr uint64_t kModeExtensionSalt = 0x6d6f6465u;  // "mode"

// Parses a comma-separated list of item ids ("3,17,4"). Rejects empty
// tokens, non-digits, and ids outside the ItemId domain.
StatusOr<std::vector<ItemId>> ParseItemList(const char* flag,
                                            const std::string& text) {
  std::vector<ItemId> items;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument(
          std::string("--") + flag +
          " wants a comma-separated list of item ids, got '" + text + "'");
    }
    errno = 0;
    const unsigned long long value = std::strtoull(token.c_str(), nullptr, 10);
    if (errno != 0 ||
        value > std::numeric_limits<ItemId>::max()) {
      return Status::InvalidArgument(std::string("--") + flag + ": item id '" +
                                     token + "' out of range");
    }
    items.push_back(static_cast<ItemId>(value));
    pos = comma + 1;
  }
  return items;
}

}  // namespace

uint64_t HashMinerOptions(const ColossalMinerOptions& options) {
  uint64_t hash = kFnvOffsetBasis;
  hash = HashCombine(hash, DoubleBits(options.sigma));
  hash = HashCombine(hash, static_cast<uint64_t>(options.min_support_count));
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options.initial_pool_max_size));
  // Always kApriori; still hashed so every stored key keeps its value.
  hash = HashCombine(hash, static_cast<uint64_t>(options.pool_miner));
  hash = HashCombine(hash, DoubleBits(options.tau));
  hash = HashCombine(hash, static_cast<uint64_t>(options.k));
  hash = HashCombine(hash, static_cast<uint64_t>(options.max_iterations));
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options.fusion_attempts_per_seed));
  hash = HashCombine(
      hash, static_cast<uint64_t>(options.max_superpatterns_per_seed));
  hash = HashCombine(hash, options.seed);
  hash = HashCombine(hash, static_cast<uint64_t>(options.num_threads));
  hash = HashCombine(hash, static_cast<uint64_t>(options.shard_parallelism));
  // Mode extensions fold in only when present — see the header contract.
  // List lengths are hashed before elements so (include={1}, exclude={})
  // and (include={}, exclude={1}) can never collide by concatenation.
  if (options.top_k != 0 || !options.constraints.IsUnconstrained()) {
    hash = HashCombine(hash, kModeExtensionSalt);
    hash = HashCombine(hash, static_cast<uint64_t>(options.top_k));
    hash = HashCombine(
        hash, static_cast<uint64_t>(options.constraints.include.size()));
    for (ItemId item : options.constraints.include) {
      hash = HashCombine(hash, static_cast<uint64_t>(item));
    }
    hash = HashCombine(
        hash, static_cast<uint64_t>(options.constraints.exclude.size()));
    for (ItemId item : options.constraints.exclude) {
      hash = HashCombine(hash, static_cast<uint64_t>(item));
    }
    hash = HashCombine(hash, static_cast<uint64_t>(options.constraints.min_len));
    hash = HashCombine(hash, static_cast<uint64_t>(options.constraints.max_len));
  }
  return hash;
}

StatusOr<CanonicalRequest> CanonicalizeRequestForSize(
    int64_t num_transactions, const ColossalMinerOptions& options,
    bool fuse_mode) {
  StatusOr<ColossalMinerOptions> canonical =
      CanonicalizeMinerOptionsForSize(num_transactions, options);
  if (!canonical.ok()) return canonical.status();
  CanonicalRequest request;
  request.options = *std::move(canonical);
  request.options_hash = HashMinerOptions(request.options);
  if (fuse_mode) {
    request.options_hash = HashCombine(request.options_hash, kFuseModeSalt);
  }
  return request;
}

StatusOr<CanonicalRequest> CanonicalizeRequest(
    const TransactionDatabase& db, const ColossalMinerOptions& options) {
  return CanonicalizeRequestForSize(db.num_transactions(), options,
                                    /*fuse_mode=*/false);
}

size_t ResultCacheKeyHash::operator()(const ResultCacheKey& key) const {
  return static_cast<size_t>(
      HashCombine(key.dataset_fingerprint, key.options_hash));
}

StatusOr<MineRequest> ParseRequestLine(const std::string& line) {
  StatusOr<Args> parsed = Args::ParseLine(line);
  if (!parsed.ok()) return parsed.status();
  const Args& args = *parsed;
  Status known = args.CheckKnown(
      {"in", "format", "sigma", "min-support", "tau", "k", "pool-size",
       "max-iterations", "attempts", "retain", "seed", "threads", "shards",
       "shard-parallelism", "top-k", "include", "exclude", "min-len",
       "max-len"});
  if (!known.ok()) return known;

  MineRequest request;
  request.dataset_path = args.GetString("in");
  if (request.dataset_path.empty()) {
    return Status::InvalidArgument("request needs --in FILE");
  }
  request.format = args.GetString("format", "auto");
  if (args.Has("shards")) {
    StatusOr<ShardMergeMode> mode =
        ParseShardMergeMode(args.GetString("shards"));
    if (!mode.ok()) return mode.status();
    request.shard_mode = *mode;
    request.shards_requested = true;
  }

  ColossalMinerOptions& options = request.options;
  if (args.Has("sigma")) {
    StatusOr<double> sigma = args.GetDouble("sigma", 0.0);
    if (!sigma.ok()) return sigma.status();
    if (*sigma < 0.0 || *sigma > 1.0) {
      return Status::InvalidArgument("--sigma must be in [0, 1]");
    }
    options.sigma = *sigma;
  } else {
    StatusOr<int64_t> min_support = args.GetInt("min-support", 0);
    if (!min_support.ok()) return min_support.status();
    if (*min_support < 1) {
      return Status::InvalidArgument(
          "request needs --sigma F or --min-support N (>= 1)");
    }
    options.sigma = -1.0;
    options.min_support_count = *min_support;
  }

  StatusOr<double> tau = args.GetDouble("tau", options.tau);
  if (!tau.ok()) return tau.status();
  options.tau = *tau;

  const struct {
    const char* flag;
    int64_t fallback;
    int64_t min;
    int64_t max;
    int* target;
  } int_flags[] = {
      {"k", options.k, 1, std::numeric_limits<int>::max(), &options.k},
      {"pool-size", options.initial_pool_max_size, 1,
       std::numeric_limits<int>::max(), &options.initial_pool_max_size},
      {"max-iterations", options.max_iterations, 1,
       std::numeric_limits<int>::max(), &options.max_iterations},
      {"attempts", options.fusion_attempts_per_seed, 1,
       std::numeric_limits<int>::max(), &options.fusion_attempts_per_seed},
      {"retain", options.max_superpatterns_per_seed, 1,
       std::numeric_limits<int>::max(), &options.max_superpatterns_per_seed},
      {"threads", options.num_threads, 0, kMaxThreads, &options.num_threads},
      {"shard-parallelism", options.shard_parallelism, 0, kMaxThreads,
       &options.shard_parallelism},
      // Mode extensions. 0 = off/unbounded for all four, so spelling the
      // default explicitly parses — and hashes — identically to omitting
      // the flag.
      {"top-k", options.top_k, 0, std::numeric_limits<int>::max(),
       &options.top_k},
      {"min-len", options.constraints.min_len, 0,
       std::numeric_limits<int>::max(), &options.constraints.min_len},
      {"max-len", options.constraints.max_len, 0,
       std::numeric_limits<int>::max(), &options.constraints.max_len},
  };
  for (const auto& flag : int_flags) {
    StatusOr<int64_t> value = args.GetInt(flag.flag, flag.fallback);
    if (!value.ok()) return value.status();
    if (*value < flag.min || *value > flag.max) {
      return Status::InvalidArgument(std::string("--") + flag.flag +
                                     " out of range");
    }
    *flag.target = static_cast<int>(*value);
  }

  if (args.Has("include")) {
    StatusOr<std::vector<ItemId>> include =
        ParseItemList("include", args.GetString("include"));
    if (!include.ok()) return include.status();
    options.constraints.include = *std::move(include);
  }
  if (args.Has("exclude")) {
    StatusOr<std::vector<ItemId>> exclude =
        ParseItemList("exclude", args.GetString("exclude"));
    if (!exclude.ok()) return exclude.status();
    options.constraints.exclude = *std::move(exclude);
  }

  StatusOr<int64_t> seed = args.GetInt("seed", static_cast<int64_t>(options.seed));
  if (!seed.ok()) return seed.status();
  options.seed = static_cast<uint64_t>(*seed);
  return request;
}

}  // namespace colossal
