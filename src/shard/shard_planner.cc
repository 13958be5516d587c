#include "shard/shard_planner.h"

#include <cstdio>
#include <utility>

#include "data/snapshot_io.h"

namespace colossal {

namespace {

// Estimated resident bytes one row adds to a shard: its slot in the row
// store plus one bit in each of the parent's tidsets (the vertical index
// of a shard spans the full item domain in the worst case). Mirrors the
// accounting of TransactionDatabase::ApproxMemoryBytes closely enough
// for budget planning; exact byte equality is not required.
int64_t ApproxRowBytes(const TransactionDatabase& db, int64_t row) {
  return static_cast<int64_t>(sizeof(Itemset)) +
         static_cast<int64_t>(db.transaction(row).size()) *
             static_cast<int64_t>(sizeof(ItemId)) +
         (static_cast<int64_t>(db.num_items()) + 7) / 8;
}

}  // namespace

StatusOr<std::vector<ShardRange>> PlanShards(const TransactionDatabase& db,
                                             const ShardPlanOptions& options) {
  const bool by_count = options.num_shards != 0;
  const bool by_bytes = options.max_shard_bytes != 0;
  if (by_count == by_bytes) {
    return Status::InvalidArgument(
        "set exactly one of num_shards and max_shard_bytes");
  }
  const int64_t rows = db.num_transactions();

  std::vector<ShardRange> ranges;
  if (by_count) {
    if (options.num_shards < 1) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (options.num_shards > rows) {
      return Status::InvalidArgument(
          "num_shards " + std::to_string(options.num_shards) + " exceeds " +
          std::to_string(rows) + " transactions");
    }
    // Near-equal split: the first `rows % num_shards` shards get one
    // extra row.
    const int64_t base = rows / options.num_shards;
    const int64_t remainder = rows % options.num_shards;
    int64_t begin = 0;
    for (int i = 0; i < options.num_shards; ++i) {
      const int64_t size = base + (i < remainder ? 1 : 0);
      ranges.push_back({begin, begin + size});
      begin += size;
    }
    return ranges;
  }

  if (options.max_shard_bytes < 1) {
    return Status::InvalidArgument("max_shard_bytes must be >= 1");
  }
  // Greedy fill: close a shard when the next row would push it over
  // budget. A single row larger than the budget still gets a shard of
  // its own (mirroring the registry's "one dataset may own the whole
  // budget" rule).
  int64_t begin = 0;
  int64_t bytes = 0;
  for (int64_t row = 0; row < rows; ++row) {
    const int64_t row_bytes = ApproxRowBytes(db, row);
    if (row > begin && bytes + row_bytes > options.max_shard_bytes) {
      ranges.push_back({begin, row});
      begin = row;
      bytes = 0;
    }
    bytes += row_bytes;
  }
  ranges.push_back({begin, rows});
  return ranges;
}

StatusOr<ShardWriteResult> WriteShardedSnapshots(
    const TransactionDatabase& db, const std::vector<ShardRange>& ranges,
    const std::string& dir, const std::string& name) {
  if (ranges.empty()) {
    return Status::InvalidArgument("no shard ranges");
  }
  int64_t expected_begin = 0;
  for (const ShardRange& range : ranges) {
    if (range.begin != expected_begin || range.end <= range.begin ||
        range.end > db.num_transactions()) {
      return Status::InvalidArgument(
          "shard ranges must tile [0, " +
          std::to_string(db.num_transactions()) + ") contiguously");
    }
    expected_begin = range.end;
  }
  if (expected_begin != db.num_transactions()) {
    return Status::InvalidArgument("shard ranges do not cover the database");
  }

  ShardWriteResult result;
  result.manifest.parent_fingerprint = FingerprintDatabase(db);
  result.manifest.num_transactions = db.num_transactions();
  result.manifest.num_items = static_cast<int64_t>(db.num_items());
  result.manifest_path = dir + "/" + name + ".manifest";

  for (size_t i = 0; i < ranges.size(); ++i) {
    const ShardRange& range = ranges[i];
    std::vector<Itemset> slice(
        db.transactions().begin() + range.begin,
        db.transactions().begin() + range.end);
    StatusOr<TransactionDatabase> shard_db =
        TransactionDatabase::FromItemsets(std::move(slice));
    if (!shard_db.ok()) return shard_db.status();

    char suffix[48];
    std::snprintf(suffix, sizeof(suffix), ".shard_%04zu.snap", i);
    const std::string file = name + suffix;
    const std::string shard_path = dir + "/" + file;
    Status written = WriteSnapshotFile(*shard_db, shard_path);
    if (!written.ok()) return written;

    ShardInfo info;
    info.path = file;  // relative: the manifest and shards move together
    info.row_begin = range.begin;
    info.row_end = range.end;
    info.fingerprint = FingerprintDatabase(*shard_db);
    result.manifest.shards.push_back(std::move(info));
    result.shard_paths.push_back(shard_path);
  }

  Status written =
      WriteShardManifestFile(result.manifest, result.manifest_path);
  if (!written.ok()) return written;
  return result;
}

}  // namespace colossal
