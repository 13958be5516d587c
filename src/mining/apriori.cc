#include "mining/apriori.h"

#include <algorithm>
#include <utility>

#include "common/bitvector.h"

namespace colossal {

namespace {

// One frequent itemset at the current level, carrying its support set so
// the next level's counting is a single AND per candidate.
struct LevelEntry {
  Itemset items;
  Bitvector support_set;
  int64_t support = 0;
};

// The join+prune+count work for one left parent `a` of the current
// level: appends the row's frequent candidates (in join order) to `out`
// and counts expanded nodes on `stats`. Returns false iff the node
// budget tripped mid-row, with budget_exceeded set on `stats` — checked
// per candidate, like every miner's budget. The prefix, prune and
// popcount checks run on the parents' item vectors and one reused
// subset buffer, so a candidate's Itemset is allocated only once it is
// known frequent.
bool JoinRow(const std::vector<LevelEntry>& level, size_t a,
             const MinerOptions& options, std::vector<LevelEntry>& out,
             MinerStats& stats) {
  const std::vector<ItemId>& left = level[a].items.items();
  std::vector<ItemId> subset;
  for (size_t b = a + 1; b < level.size(); ++b) {
    const std::vector<ItemId>& right = level[b].items.items();
    if (!std::equal(left.begin(), left.end() - 1, right.begin())) {
      break;  // sorted order: no later b can match
    }
    const ItemId last = right.back();

    // Prune step: every (size−1)-subset of left ∪ {last} must be
    // frequent. The two join parents are; each other subset drops one
    // of left's first size−2 items and is checked by binary search over
    // the sorted level.
    bool all_subsets_frequent = true;
    for (size_t drop = 0; drop + 1 < left.size(); ++drop) {
      subset.assign(left.begin(), left.begin() + drop);
      subset.insert(subset.end(), left.begin() + drop + 1, left.end());
      subset.push_back(last);
      const auto it = std::lower_bound(
          level.begin(), level.end(), subset,
          [](const LevelEntry& entry, const std::vector<ItemId>& target) {
            return entry.items.items() < target;
          });
      if (it == level.end() || it->items.items() != subset) {
        all_subsets_frequent = false;
        break;
      }
    }
    if (!all_subsets_frequent) continue;

    ++stats.nodes_expanded;
    if (options.max_nodes != 0 &&
        stats.nodes_expanded > options.max_nodes) {
      stats.budget_exceeded = true;
      return false;
    }
    // Popcount first; materialize the itemset and support set only for
    // survivors.
    const int64_t support =
        Bitvector::AndCount(level[a].support_set, level[b].support_set);
    if (support >= options.min_support_count) {
      std::vector<ItemId> items;
      items.reserve(left.size() + 1);
      items.assign(left.begin(), left.end());
      items.push_back(last);
      out.push_back({Itemset::FromSorted(std::move(items)),
                     Bitvector::And(level[a].support_set,
                                    level[b].support_set, options.arena),
                     support});
    }
  }
  return true;
}

// Moves a level the join no longer reads into `result`, in level order,
// and its support sets into `support_sets` when the caller wants them.
void EmitLevel(std::vector<LevelEntry>& level, MiningResult& result,
               std::vector<Bitvector>* support_sets) {
  for (LevelEntry& entry : level) {
    result.patterns.push_back({std::move(entry.items), entry.support});
    if (support_sets != nullptr) {
      support_sets->push_back(std::move(entry.support_set));
    }
  }
}

}  // namespace

StatusOr<MiningResult> MineApriori(const TransactionDatabase& db,
                                   const MinerOptions& options,
                                   std::vector<Bitvector>* support_sets) {
  Status valid = ValidateMinerOptions(db, options);
  if (!valid.ok()) return valid;
  if (support_sets != nullptr) support_sets->clear();

  MiningResult result;
  const int max_size = options.max_pattern_size == 0
                           ? static_cast<int>(db.num_items())
                           : options.max_pattern_size;

  // Level 1: frequent single items.
  std::vector<LevelEntry> level;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    // Constraint pushdown: a disallowed item is not a search node — it
    // is skipped before the node counter, the popcount, and the tidset
    // copy, so excluded vocabulary never materializes a Bitvector.
    if (!options.constraints.ItemAllowed(item)) continue;
    ++result.stats.nodes_expanded;
    if (options.max_nodes != 0 &&
        result.stats.nodes_expanded > options.max_nodes) {
      result.stats.budget_exceeded = true;
      return result;
    }
    const Bitvector& tidset = db.item_tidset(item);
    const int64_t support = tidset.Count();
    if (support >= options.min_support_count) {
      level.push_back(
          {Itemset::Single(item), Bitvector(tidset, options.arena), support});
    }
  }

  // Join step: pairs sharing the first size−2 items. `level` is sorted
  // lexicographically (construction order preserves this), so joinable
  // partners are contiguous.
  for (int size = 2; size <= max_size && level.size() >= 2; ++size) {
    std::vector<LevelEntry> next_level;
    for (size_t a = 0; a < level.size(); ++a) {
      // JoinRow sets budget_exceeded on result.stats when it trips.
      if (!JoinRow(level, a, options, next_level, result.stats)) {
        EmitLevel(level, result, support_sets);
        return result;
      }
    }
    EmitLevel(level, result, support_sets);
    level = std::move(next_level);
  }
  // Each level is emitted once the next one is joined, so the output
  // runs level by level in join order: (size, lexicographic).
  EmitLevel(level, result, support_sets);
  return result;
}

}  // namespace colossal
