#ifndef COLOSSAL_MINING_CONSTRAINTS_H_
#define COLOSSAL_MINING_CONSTRAINTS_H_

#include <algorithm>
#include <vector>

#include "common/itemset.h"
#include "common/status.h"

namespace colossal {

// Item and cardinality constraints pushed into mining (ROADMAP item 5:
// per-tenant constrained mining). The include list is a vocabulary
// allowlist — patterns may only use listed items — not a must-contain
// filter: an allowlist is anti-monotone-safe for both the bounded-size
// complete miners and pattern fusion (unions of allowed items stay
// allowed), so it can be pushed all the way into candidate generation.
// Items outside the vocabulary are skipped before their tidsets are
// ever counted or materialized.
struct MiningConstraints {
  // Allowed items (empty = every item). Canonical form: sorted, unique.
  std::vector<ItemId> include;
  // Blocked items. Canonical form: sorted, unique, disjoint from a
  // non-empty include list (overlap is a request error; with an
  // allowlist present the excludes are redundant and canonicalization
  // erases them).
  std::vector<ItemId> exclude;
  // Result cardinality bounds; 0 = unbounded. min_len filters the final
  // answer (small patterns stay in the pool — they are fusion's
  // building blocks); max_len is pushed down: it caps the initial-pool
  // pattern size and gates fusion merges whose item union would exceed
  // it.
  int min_len = 0;
  int max_len = 0;

  bool IsUnconstrained() const {
    return include.empty() && exclude.empty() && min_len == 0 && max_len == 0;
  }

  // True iff `item` may appear in any mined pattern. Lists are assumed
  // canonical (sorted) — O(log n) binary searches.
  bool ItemAllowed(ItemId item) const {
    if (!include.empty() &&
        !std::binary_search(include.begin(), include.end(), item)) {
      return false;
    }
    return exclude.empty() ||
           !std::binary_search(exclude.begin(), exclude.end(), item);
  }

  friend bool operator==(const MiningConstraints& a,
                         const MiningConstraints& b) {
    return a.include == b.include && a.exclude == b.exclude &&
           a.min_len == b.min_len && a.max_len == b.max_len;
  }
};

// Rewrites `constraints` into canonical form, so equal constraints
// written differently (list order, duplicates, no-op bounds) collapse
// to one struct — and one cache key:
//   * include/exclude are sorted and deduplicated;
//   * a non-empty include list erases the (necessarily disjoint)
//     exclude list, which is then a no-op;
//   * min_len 1 becomes 0 (patterns are non-empty by construction).
// Fails on include/exclude overlap (contradictory: every overlapping
// item is simultaneously required-allowed and blocked), a negative
// bound, or min_len > max_len when both are set.
Status CanonicalizeConstraints(MiningConstraints* constraints);

}  // namespace colossal

#endif  // COLOSSAL_MINING_CONSTRAINTS_H_
