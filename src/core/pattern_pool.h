#ifndef COLOSSAL_CORE_PATTERN_POOL_H_
#define COLOSSAL_CORE_PATTERN_POOL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/pattern.h"

namespace colossal {

// The candidate pool Pattern-Fusion pushes down the search tree: a set of
// patterns deduplicated by itemset, supporting the two operations the
// algorithm needs — random seed draws without replacement (Algorithm 2,
// line 3) and linear scans for ball queries (lines 5–7).
class PatternPool {
 public:
  PatternPool() = default;

  // Inserts `pattern` unless an equal itemset is already present.
  // Returns true iff inserted.
  bool Add(Pattern pattern);

  // Bulk insert; returns the number actually added. Sizes the pool and
  // its index for every pattern up front.
  int64_t AddAll(std::vector<Pattern> patterns);

  int64_t size() const { return static_cast<int64_t>(patterns_.size()); }
  bool empty() const { return patterns_.empty(); }
  const std::vector<Pattern>& patterns() const { return patterns_; }
  const Pattern& pattern(int64_t i) const {
    return patterns_[static_cast<size_t>(i)];
  }

  bool Contains(const Itemset& items) const {
    return !slots_.empty() && slots_[FindSlot(items)] != kEmptySlot;
  }

  // Cardinality of the smallest / largest pattern; 0 on an empty pool.
  // Lemma 5 states the minimum is non-decreasing across fusion
  // iterations, which the algorithm asserts via these.
  int MinPatternSize() const;
  int MaxPatternSize() const;

  // Draws min(k, size()) distinct pattern indices uniformly at random.
  std::vector<int64_t> DrawSeeds(int64_t k, Rng& rng) const;

 private:
  static constexpr int64_t kEmptySlot = -1;

  // The slot holding the position of `items` if present, else the
  // empty slot where it belongs. Requires a non-empty slot table.
  size_t FindSlot(const Itemset& items) const;

  // Grows the slot table (rehashing every position) so it can index
  // `count` patterns at load factor ≤ 1/2.
  void ReserveSlots(int64_t count);

  std::vector<Pattern> patterns_;
  // Dedup index: open addressing with linear probing over positions in
  // patterns_ (kEmptySlot when free). Power-of-two sized and at most half
  // full, so probes are short and always reach a free slot. Holding
  // positions rather than itemset copies means an insert allocates
  // nothing beyond the occasional table doubling, and a moved pool's
  // index stays valid.
  std::vector<int64_t> slots_;
};

}  // namespace colossal

#endif  // COLOSSAL_CORE_PATTERN_POOL_H_
