#include "core/pattern_pool.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace colossal {

namespace {

// HashItemset through the SplitMix64 finalizer, so the low bits a
// power-of-two table keeps depend on every item.
uint64_t SlotHash(const Itemset& items) {
  uint64_t hash = HashItemset(items);
  hash = (hash ^ (hash >> 30)) * 0xbf58476d1ce4e5b9ULL;
  hash = (hash ^ (hash >> 27)) * 0x94d049bb133111ebULL;
  return hash ^ (hash >> 31);
}

}  // namespace

size_t PatternPool::FindSlot(const Itemset& items) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(SlotHash(items)) & mask;
  while (slots_[slot] != kEmptySlot &&
         patterns_[static_cast<size_t>(slots_[slot])].items != items) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void PatternPool::ReserveSlots(int64_t count) {
  if (static_cast<int64_t>(slots_.size()) >= 2 * count) return;
  size_t capacity = 16;
  while (static_cast<int64_t>(capacity) < 2 * count) capacity *= 2;
  slots_.assign(capacity, kEmptySlot);
  for (int64_t position = 0; position < size(); ++position) {
    slots_[FindSlot(pattern(position).items)] = position;
  }
}

bool PatternPool::Add(Pattern pattern) {
  ReserveSlots(size() + 1);
  const size_t slot = FindSlot(pattern.items);
  if (slots_[slot] != kEmptySlot) return false;
  slots_[slot] = size();
  patterns_.push_back(std::move(pattern));
  return true;
}

int64_t PatternPool::AddAll(std::vector<Pattern> patterns) {
  const int64_t before = size();
  const int64_t most = before + static_cast<int64_t>(patterns.size());
  patterns_.reserve(static_cast<size_t>(most));
  ReserveSlots(most);
  for (Pattern& pattern : patterns) Add(std::move(pattern));
  return size() - before;
}

int PatternPool::MinPatternSize() const {
  int smallest = 0;
  for (const Pattern& pattern : patterns_) {
    if (smallest == 0 || pattern.size() < smallest) smallest = pattern.size();
  }
  return smallest;
}

int PatternPool::MaxPatternSize() const {
  int largest = 0;
  for (const Pattern& pattern : patterns_) {
    largest = std::max(largest, pattern.size());
  }
  return largest;
}

std::vector<int64_t> PatternPool::DrawSeeds(int64_t k, Rng& rng) const {
  const int64_t count = std::min(k, size());
  return rng.SampleWithoutReplacement(size(), count);
}

}  // namespace colossal
