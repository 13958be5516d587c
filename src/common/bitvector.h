#ifndef COLOSSAL_COMMON_BITVECTOR_H_
#define COLOSSAL_COMMON_BITVECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace colossal {

class Arena;

// A fixed-length packed bit vector used to represent transaction-id sets
// (tidsets / "support sets" in the paper). All set-algebra kernels are
// word-parallel and routed through the runtime-dispatched backend table
// in common/bitvector_kernels.h (scalar or AVX2 — bit-identical by
// construction); with the paper's datasets (≤ 4,395 transactions) a
// support set is at most 69 words, so intersections and popcounts — the
// inner loop of Pattern-Fusion's ball queries — are a few dozen ns.
//
// Storage is a single 64-byte-aligned word buffer, either heap-owned or
// carved from an Arena (common/arena.h). Arena backing is an opt-in for
// mining temporaries whose lifetime the arena's owner controls:
//  - only the explicit arena constructors produce arena-backed vectors;
//  - moves keep whatever backing the source had;
//  - the plain copy constructor/assignment always produce a HEAP-backed
//    copy, so a value copied out of a mine (result patterns, caches)
//    never dangles when the mine's arena resets.
class Bitvector {
 public:
  // Constructs an empty (zero-length) vector.
  Bitvector() = default;

  // Constructs `num_bits` bits, all cleared (or all set when `value`),
  // heap-backed.
  explicit Bitvector(int64_t num_bits, bool value = false);

  // Same, with the word buffer carved from `arena` (heap when arena is
  // null). The vector must not be used after the arena resets.
  Bitvector(int64_t num_bits, Arena* arena, bool value = false);

  // Deep copy; heap-backed regardless of other's backing.
  Bitvector(const Bitvector& other);

  // Deep copy with the word buffer carved from `arena` (heap when arena
  // is null).
  Bitvector(const Bitvector& other, Arena* arena);

  Bitvector(Bitvector&& other) noexcept;
  Bitvector& operator=(const Bitvector& other);
  Bitvector& operator=(Bitvector&& other) noexcept;
  ~Bitvector();

  // Returns a vector of `num_bits` ones.
  static Bitvector AllSet(int64_t num_bits) { return Bitvector(num_bits, true); }

  // Returns a vector with exactly the given bit indices set. Indices must
  // be unique and < num_bits.
  static Bitvector FromIndices(int64_t num_bits,
                               const std::vector<int64_t>& indices);

  int64_t size_bits() const { return num_bits_; }

  // True iff the word buffer lives in an Arena (and so dies with it).
  bool arena_backed() const { return arena_ != nullptr; }

  void Set(int64_t bit);
  void Reset(int64_t bit);
  bool Test(int64_t bit) const;

  // Number of set bits.
  int64_t Count() const;

  // True iff no bit is set. Early-exits on the first nonzero word, so
  // it is O(1) on typical nonempty support sets (vs. Count()'s full
  // popcount scan).
  bool None() const;

  // In-place algebra; both operands must have equal size_bits().
  void AndWith(const Bitvector& other);
  void OrWith(const Bitvector& other);
  void AndNotWith(const Bitvector& other);  // this &= ~other

  // this |= (other << offset): ORs `other` into this at bit positions
  // [offset, offset + other.size_bits()). Word-parallel; the shard layer
  // uses it to stitch per-shard support sets (local row indices) into a
  // global support set. Requires offset >= 0 and the shifted range to
  // fit within size_bits().
  void OrWithShifted(const Bitvector& other, int64_t offset);

  // Out-of-place algebra. The arena overloads back the result with
  // `arena` (heap when null); the two-argument forms are heap-backed.
  static Bitvector And(const Bitvector& a, const Bitvector& b,
                       Arena* arena = nullptr);
  static Bitvector Or(const Bitvector& a, const Bitvector& b,
                      Arena* arena = nullptr);

  // |a ∩ b| / |a ∪ b| popcounts without materializing the result.
  static int64_t AndCount(const Bitvector& a, const Bitvector& b);
  static int64_t OrCount(const Bitvector& a, const Bitvector& b);

  // True iff a ∩ b is empty (the negation of Intersects, named for
  // pruning call sites): rejects disjoint support sets without
  // materializing — or even fully popcounting — the intersection.
  static bool AndNone(const Bitvector& a, const Bitvector& b);

  // True iff every set bit of *this is set in `other`.
  bool IsSubsetOf(const Bitvector& other) const;

  // True iff a and b share at least one set bit.
  static bool Intersects(const Bitvector& a, const Bitvector& b);

  // Jaccard distance 1 − |a∩b|/|a∪b| (the paper's pattern distance,
  // Definition 6, when a and b are support sets). Two empty sets are at
  // distance 0 by convention.
  static double JaccardDistance(const Bitvector& a, const Bitvector& b);

  // The positions of set bits, in increasing order.
  std::vector<int64_t> ToIndices() const;

  // Renders as e.g. "0110" (bit 0 first). Intended for tests/debugging.
  std::string ToString() const;

  // 64-bit content hash (position-sensitive), for dedup tables.
  uint64_t HashValue() const;

  // Appends a compact binary encoding to `out`: the bit length as a
  // little-endian int64, then the packed words little-endian. The
  // encoding is platform-independent and self-delimiting (the length
  // determines the word count), which is what the dataset snapshot
  // format needs to concatenate one tidset per item. Backing does not
  // change the bytes: arena- and heap-backed vectors serialize
  // identically.
  void AppendTo(std::string* out) const;

  // Number of bytes AppendTo writes for a vector of `num_bits` bits.
  static int64_t SerializedBytes(int64_t num_bits);

  // Parses one encoded vector from `data` starting at *pos and advances
  // *pos past it. Fails on truncated input, a negative length, or set
  // bits beyond the declared length (corrupt padding). The result is
  // heap-backed.
  static StatusOr<Bitvector> ParseFrom(const std::string& data, size_t* pos);

  friend bool operator==(const Bitvector& a, const Bitvector& b);
  friend bool operator!=(const Bitvector& a, const Bitvector& b) {
    return !(a == b);
  }

 private:
  void ClearTrailingBits();
  int64_t num_words() const;

  uint64_t* words_ = nullptr;
  int64_t num_bits_ = 0;
  Arena* arena_ = nullptr;  // null ⇒ words_ is heap-owned
};

}  // namespace colossal

#endif  // COLOSSAL_COMMON_BITVECTOR_H_
