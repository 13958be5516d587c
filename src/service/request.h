#ifndef COLOSSAL_SERVICE_REQUEST_H_
#define COLOSSAL_SERVICE_REQUEST_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/colossal_miner.h"
#include "data/transaction_database.h"
#include "shard/sharded_miner.h"

namespace colossal {

// The typed request model — the single source of truth for the request
// line grammar, validation, canonicalization and the cache-key hash.
// Every transport speaks it: the stdin daemon, the TCP server and the
// HTTP front end all parse a request line with ParseRequestLine into a
// MineRequest, and the service canonicalizes it with the functions
// below. No transport carries request-specific parsing or hashing of
// its own.
//
// A MineRequest names which dataset, and the full set of Pattern-Fusion
// knobs. Requests are value types; the service resolves the dataset
// path through its DatasetRegistry.
struct MineRequest {
  std::string dataset_path;
  // "fimi" | "matrix" | "snapshot" | "manifest" | "auto" (see
  // LoadDatabaseFile; "manifest"/"auto" admit a shard manifest, which
  // the service routes through the sharded miner).
  std::string format = "auto";
  // How to merge per-shard results when dataset_path is a shard
  // manifest (--shards). kExact is the default; shards_requested
  // records whether --shards appeared, because naming it on a
  // non-manifest dataset is a request error.
  ShardMergeMode shard_mode = ShardMergeMode::kExact;
  bool shards_requested = false;
  ColossalMinerOptions options;
};

// The canonical form of a request against a concrete dataset, produced
// by CanonicalizeRequest(ForSize): options rewritten so that every
// request with the same mining output has the same canonical struct,
// plus the stable 64-bit hash the result cache keys on.
struct CanonicalRequest {
  ColossalMinerOptions options;
  uint64_t options_hash = 0;
};

// Stable content hash over the result-affecting option fields. Operates
// on already-canonical options (call through CanonicalizeRequest);
// num_threads, pool_miner (always kApriori) and sigma are hashed too,
// which is harmless because canonicalization has reset/resolved them.
//
// Versioning: the legacy fields hash exactly as they always have, and
// the mode extensions (top_k, constraints) fold in — under a version
// salt — only when one of them is non-default. Every pre-existing
// request line therefore keeps its historical hash bit-for-bit (the
// golden-key regression test in tests/request_test.cc pins a sample),
// while a constrained or top-k request can never collide with its
// unconstrained spelling by construction.
uint64_t HashMinerOptions(const ColossalMinerOptions& options);

// Canonicalizes `options` against a dataset of `num_transactions` rows
// (see CanonicalizeMinerOptionsForSize — canonicalization depends on
// the dataset only through |D|) and hashes the result. Equivalent
// requests — sigma vs. the absolute support it denotes, any
// num_threads/shard_parallelism, constraint lists in any order —
// collapse to one CanonicalRequest.
//
// `fuse_mode` marks the sharded miner's approximate kFuse merge: it
// folds a salt into options_hash so an approximate result can never be
// served for the exact request (or vice versa) from the result cache.
// This salt lives here, with the rest of request identity — transports
// and the service never adjust hashes themselves.
StatusOr<CanonicalRequest> CanonicalizeRequestForSize(
    int64_t num_transactions, const ColossalMinerOptions& options,
    bool fuse_mode = false);

// Convenience overload against a loaded database (never fuse mode:
// loaded-database requests are unsharded by definition).
StatusOr<CanonicalRequest> CanonicalizeRequest(
    const TransactionDatabase& db, const ColossalMinerOptions& options);

// Result-cache key: one dataset (by content fingerprint, so the same
// bytes under two paths share entries) × one canonical option set.
struct ResultCacheKey {
  uint64_t dataset_fingerprint = 0;
  uint64_t options_hash = 0;

  friend bool operator==(const ResultCacheKey& a, const ResultCacheKey& b) {
    return a.dataset_fingerprint == b.dataset_fingerprint &&
           a.options_hash == b.options_hash;
  }
};

struct ResultCacheKeyHash {
  size_t operator()(const ResultCacheKey& key) const;
};

// Parses one request line of the batch/daemon protocol (the same line
// grammar on every transport: stdin daemon, TCP framing payload, HTTP
// POST /mine body):
//
//   --in FILE [--format fimi|matrix|snapshot|manifest|auto]
//   (--sigma F | --min-support N) [--tau F] [--k N] [--pool-size N]
//   [--max-iterations N] [--attempts N] [--retain N] [--seed S]
//   [--threads N] [--shards exact|fuse] [--shard-parallelism N]
//   [--top-k N] [--include I1,I2,...] [--exclude I1,I2,...]
//   [--min-len N] [--max-len N]
//
// --top-k N asks for the K largest patterns under the result order
// (size descending, ties lexicographic); 0 = off. --include/--exclude
// take comma-separated item ids (include = vocabulary allowlist,
// exclude = blocklist); --min-len/--max-len bound answer cardinality.
// Unknown flags are rejected with the list of known ones.
StatusOr<MineRequest> ParseRequestLine(const std::string& line);

}  // namespace colossal

#endif  // COLOSSAL_SERVICE_REQUEST_H_
