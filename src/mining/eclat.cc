#include "mining/eclat.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/thread_pool.h"

namespace colossal {

namespace {

// (item, tidset) pairs extending one prefix, in increasing item order.
using Extensions = std::vector<std::pair<ItemId, Bitvector>>;

// Builds the frequent extension list of the child rooted at
// extensions[i]: every extensions[j] with j > i whose tidset intersects
// extensions[i]'s frequently. Counts one expanded node per probe on
// `stats` and stops early (flagging budget_exceeded) when the budget
// trips. Shared by the serial DFS and the parallel per-root fragments,
// so the two walks cannot drift apart.
Extensions ExpandChild(const Extensions& extensions, size_t i,
                       const MinerOptions& options, MinerStats& stats) {
  Extensions child_extensions;
  for (size_t j = i + 1; j < extensions.size(); ++j) {
    ++stats.nodes_expanded;
    if (options.max_nodes != 0 &&
        stats.nodes_expanded > options.max_nodes) {
      stats.budget_exceeded = true;
      break;
    }
    // Popcount first; materialize only frequent tidsets.
    if (Bitvector::AndCount(extensions[i].second, extensions[j].second) >=
        options.min_support_count) {
      child_extensions.emplace_back(
          extensions[j].first,
          Bitvector::And(extensions[i].second, extensions[j].second,
                         options.arena));
    }
  }
  return child_extensions;
}

struct EclatState {
  const MinerOptions* options;
  MiningResult* result;
  std::vector<Bitvector>* support_sets;  // null: the caller wants none
  int max_size;
  std::vector<ItemId> prefix;

  // Emits the current pattern with `support` and reserves its slot in
  // support_sets, which the caller fills once the node's subtree is done.
  size_t Emit(int64_t support) {
    result->patterns.push_back({Itemset::FromSorted(prefix), support});
    if (support_sets != nullptr) support_sets->emplace_back();
    return result->patterns.size() - 1;
  }

  // Expands the node whose itemset is `prefix`, which is below the size
  // bound. `extensions` holds the (item, tidset) pairs that extend
  // `prefix` frequently, every item larger than the last prefix item;
  // each child's own extension list is built by intersecting tidsets
  // before recursing, and only for children below the bound. A child's
  // tidset moves into support_sets after its subtree: later siblings
  // read only the extensions to their right.
  void Recurse(Extensions& extensions) {
    for (size_t i = 0; i < extensions.size(); ++i) {
      if (result->stats.budget_exceeded) return;
      prefix.push_back(extensions[i].first);
      const size_t slot = Emit(extensions[i].second.Count());
      if (static_cast<int>(prefix.size()) < max_size) {
        Extensions child_extensions =
            ExpandChild(extensions, i, *options, result->stats);
        if (!result->stats.budget_exceeded) Recurse(child_extensions);
      }
      if (support_sets != nullptr) {
        (*support_sets)[slot] = std::move(extensions[i].second);
      }
      prefix.pop_back();
      if (result->stats.budget_exceeded) return;
    }
  }
};

}  // namespace

StatusOr<MiningResult> MineEclat(const TransactionDatabase& db,
                                 const MinerOptions& options,
                                 std::vector<Bitvector>* support_sets) {
  Status valid = ValidateMinerOptions(db, options);
  if (!valid.ok()) return valid;
  if (support_sets != nullptr) support_sets->clear();

  MiningResult result;
  const int max_size = options.max_pattern_size == 0
                           ? static_cast<int>(db.num_items())
                           : options.max_pattern_size;

  Extensions roots;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    // Constraint pushdown, mirroring MineApriori's level 1: disallowed
    // items never become roots, never count as expanded nodes, and
    // never copy a tidset; every deeper candidate extends a root, so
    // the whole DFS inherits the pruning.
    if (!options.constraints.ItemAllowed(item)) continue;
    ++result.stats.nodes_expanded;
    if (options.max_nodes != 0 &&
        result.stats.nodes_expanded > options.max_nodes) {
      result.stats.budget_exceeded = true;
      return result;
    }
    const Bitvector& tidset = db.item_tidset(item);
    if (tidset.Count() >= options.min_support_count) {
      roots.emplace_back(item, Bitvector(tidset, options.arena));
    }
  }

  // Budgeted runs stay serial so the truncation point is the exact DFS
  // prefix a single-threaded walk would produce.
  const int num_threads =
      options.max_nodes != 0
          ? 1
          : ParallelPolicy{options.num_threads}.ResolvedThreads();
  if (num_threads > 1 && roots.size() > 1) {
    // Each root's subtree is an independent DFS over the extension
    // lists to its right: shard subtrees across workers into per-root
    // result fragments, then concatenate in root order — byte-for-byte
    // the serial DFS enumeration. Workers read every root to their
    // right, so root tidsets are handed over only after the join.
    struct Fragment {
      MiningResult result;
      std::vector<Bitvector> support_sets;
    };
    ThreadPool workers(static_cast<int>(std::min<int64_t>(
        num_threads, static_cast<int64_t>(roots.size()))));
    std::vector<Fragment> fragments = ParallelMap(
        &workers, static_cast<int64_t>(roots.size()), [&](int64_t i) {
          const size_t root = static_cast<size_t>(i);
          Fragment fragment;
          EclatState state{
              &options, &fragment.result,
              support_sets != nullptr ? &fragment.support_sets : nullptr,
              max_size, {roots[root].first}};
          state.Emit(roots[root].second.Count());
          if (max_size > 1) {
            Extensions child_extensions = ExpandChild(
                roots, root, options, fragment.result.stats);
            state.Recurse(child_extensions);
          }
          return fragment;
        });
    for (size_t i = 0; i < fragments.size(); ++i) {
      Fragment& fragment = fragments[i];
      result.stats.nodes_expanded += fragment.result.stats.nodes_expanded;
      // Unreachable while budgeted runs force serial, but keeps the
      // flag from being silently dropped if that coupling ever changes.
      if (fragment.result.stats.budget_exceeded) {
        result.stats.budget_exceeded = true;
      }
      for (FrequentItemset& pattern : fragment.result.patterns) {
        result.patterns.push_back(std::move(pattern));
      }
      if (support_sets != nullptr) {
        fragment.support_sets[0] = std::move(roots[i].second);
        for (Bitvector& set : fragment.support_sets) {
          support_sets->push_back(std::move(set));
        }
      }
    }
    return result;
  }

  EclatState state{&options, &result, support_sets, max_size, {}};
  state.Recurse(roots);
  return result;
}

}  // namespace colossal
