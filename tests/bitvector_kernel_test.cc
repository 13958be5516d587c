#include "common/bitvector_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bitvector.h"
#include "common/rng.h"

namespace colossal {
namespace {

// Differential suite: every Bitvector operation, run once through the
// dispatched backend (AVX2 where the build and CPU carry it) and once
// with the scalar backend pinned, must agree bit for bit. On a machine
// without AVX2 both runs resolve to scalar and the suite degenerates to
// a self-check — still a valid (if weaker) pass; the CI scalar leg plus
// an AVX2 host together cover both backends.

// Deterministic random vector of `num_bits` with roughly density·bits
// set. Exercised lengths include 0, sub-word, exact word multiples, and
// tails of every residue.
Bitvector RandomVector(Rng& rng, int64_t num_bits, double density) {
  Bitvector v(num_bits);
  if (num_bits == 0) return v;
  const int64_t target = static_cast<int64_t>(num_bits * density);
  for (int64_t i = 0; i < target; ++i) {
    v.Set(rng.UniformInt(0, num_bits - 1));
  }
  return v;
}

struct OpResults {
  std::string and_bits, or_bits, andnot_bits, or_shifted_bits;
  int64_t count_a, and_count, or_count;
  bool none_a, and_none, subset, equal;
  std::vector<int64_t> indices;
  uint64_t hash_a;
};

OpResults RunOps(const Bitvector& a, const Bitvector& b, int64_t shift_offset,
                 const Bitvector& shift_dst) {
  OpResults r;
  Bitvector and_v = a;
  and_v.AndWith(b);
  r.and_bits = and_v.ToString();
  Bitvector or_v = a;
  or_v.OrWith(b);
  r.or_bits = or_v.ToString();
  Bitvector andnot_v = a;
  andnot_v.AndNotWith(b);
  r.andnot_bits = andnot_v.ToString();
  Bitvector shifted = shift_dst;
  shifted.OrWithShifted(a, shift_offset);
  r.or_shifted_bits = shifted.ToString();
  r.count_a = a.Count();
  r.and_count = Bitvector::AndCount(a, b);
  r.or_count = Bitvector::OrCount(a, b);
  r.none_a = a.None();
  r.and_none = Bitvector::AndNone(a, b);
  r.subset = a.IsSubsetOf(b);
  // a&b ⊆ b holds for any input; a false here is a kernel bug.
  EXPECT_TRUE(and_v.IsSubsetOf(b));
  r.equal = (a == b);
  r.indices = a.ToIndices();
  r.hash_a = a.HashValue();
  return r;
}

class BitvectorKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetBitvectorForceScalar(false); }
};

TEST_F(BitvectorKernelTest, BackendNamesAreSane) {
  SetBitvectorForceScalar(true);
  EXPECT_STREQ(ActiveBitvectorKernels().name, "scalar");
  SetBitvectorForceScalar(false);
  const std::string active = ActiveBitvectorKernels().name;
  EXPECT_TRUE(active == "scalar" || active == "avx2") << active;
  // Un-forcing re-resolves honoring the environment, so CI's
  // COLOSSAL_FORCE_SCALAR leg still runs this suite all-scalar.
  const char* env = std::getenv("COLOSSAL_FORCE_SCALAR");
  const bool env_forces_scalar =
      env != nullptr && env[0] != '\0' && std::string(env) != "0";
  if (!env_forces_scalar && Avx2BitvectorKernels() != nullptr &&
      CpuSupportsAvx2()) {
    EXPECT_EQ(active, "avx2");
  } else {
    EXPECT_EQ(active, "scalar");
  }
}

TEST_F(BitvectorKernelTest, DifferentialScalarVsDispatched) {
  // ~1k vector pairs across adversarial lengths: empty, single word,
  // exact word boundaries, partial tails of every alignment class, and
  // sizes past the widest vector loop (4 words per AVX2 iteration).
  const std::vector<int64_t> lengths = {0,   1,   37,  63,  64,  65,
                                        127, 128, 129, 191, 255, 256,
                                        257, 300, 511, 513, 1000};
  const std::vector<double> densities = {0.0, 0.05, 0.5, 0.95, 1.0};
  int pairs = 0;
  for (int64_t num_bits : lengths) {
    for (double density : densities) {
      for (int rep = 0; rep < 3; ++rep) {
        Rng rng(0x5eed + num_bits * 1000 + rep * 7 +
                static_cast<uint64_t>(density * 100));
        const Bitvector a = RandomVector(rng, num_bits, density);
        const Bitvector b = RandomVector(rng, num_bits, 1.0 - density / 2);
        // Misaligned stitch target: offset exercises word_shift and a
        // nonzero bit_shift in the same call.
        const int64_t offset = num_bits == 0 ? 0 : rng.UniformInt(0, 96);
        const Bitvector dst =
            RandomVector(rng, num_bits + offset, density / 2);

        SetBitvectorForceScalar(true);
        const OpResults scalar = RunOps(a, b, offset, dst);
        SetBitvectorForceScalar(false);
        const OpResults dispatched = RunOps(a, b, offset, dst);

        ASSERT_EQ(scalar.and_bits, dispatched.and_bits) << num_bits;
        ASSERT_EQ(scalar.or_bits, dispatched.or_bits) << num_bits;
        ASSERT_EQ(scalar.andnot_bits, dispatched.andnot_bits) << num_bits;
        ASSERT_EQ(scalar.or_shifted_bits, dispatched.or_shifted_bits)
            << num_bits << " offset=" << offset;
        ASSERT_EQ(scalar.count_a, dispatched.count_a) << num_bits;
        ASSERT_EQ(scalar.and_count, dispatched.and_count) << num_bits;
        ASSERT_EQ(scalar.or_count, dispatched.or_count) << num_bits;
        ASSERT_EQ(scalar.none_a, dispatched.none_a) << num_bits;
        ASSERT_EQ(scalar.and_none, dispatched.and_none) << num_bits;
        ASSERT_EQ(scalar.subset, dispatched.subset) << num_bits;
        ASSERT_EQ(scalar.equal, dispatched.equal) << num_bits;
        ASSERT_EQ(scalar.indices, dispatched.indices) << num_bits;
        ASSERT_EQ(scalar.hash_a, dispatched.hash_a) << num_bits;
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 250);  // 17 lengths × 5 densities × 3 reps
}

TEST_F(BitvectorKernelTest, SubsetAndNoneEdgeCases) {
  for (bool force_scalar : {true, false}) {
    SetBitvectorForceScalar(force_scalar);
    const Bitvector empty(0);
    EXPECT_TRUE(empty.None());
    EXPECT_TRUE(empty.IsSubsetOf(empty));
    EXPECT_TRUE(Bitvector::AndNone(empty, empty));

    Bitvector zeros(300);
    Bitvector ones = Bitvector::AllSet(300);
    EXPECT_TRUE(zeros.None());
    EXPECT_FALSE(ones.None());
    EXPECT_TRUE(zeros.IsSubsetOf(ones));
    EXPECT_FALSE(ones.IsSubsetOf(zeros));
    EXPECT_TRUE(Bitvector::AndNone(zeros, ones));
    EXPECT_FALSE(Bitvector::AndNone(ones, ones));
    EXPECT_EQ(ones.Count(), 300);

    // One bit in the tail word only.
    Bitvector tail(300);
    tail.Set(299);
    EXPECT_FALSE(tail.None());
    EXPECT_TRUE(tail.IsSubsetOf(ones));
    EXPECT_FALSE(Bitvector::AndNone(tail, ones));
    EXPECT_EQ(Bitvector::AndCount(tail, ones), 1);
  }
}

TEST_F(BitvectorKernelTest, ArenaAndHeapBackingsAgree) {
  Rng rng(0xa7e4a);
  Arena arena;
  for (int rep = 0; rep < 50; ++rep) {
    const int64_t num_bits = rng.UniformInt(1, 500);
    const Bitvector heap_a = RandomVector(rng, num_bits, 0.4);
    const Bitvector heap_b = RandomVector(rng, num_bits, 0.4);
    Bitvector arena_a(heap_a, &arena);
    Bitvector arena_b(heap_b, &arena);
    ASSERT_TRUE(arena_a.arena_backed());
    ASSERT_EQ(arena_a, heap_a);

    Bitvector heap_and = Bitvector::And(heap_a, heap_b);
    Bitvector arena_and = Bitvector::And(arena_a, arena_b, &arena);
    ASSERT_TRUE(arena_and.arena_backed());
    ASSERT_FALSE(heap_and.arena_backed());
    ASSERT_EQ(heap_and, arena_and);
    ASSERT_EQ(heap_and.ToString(), arena_and.ToString());

    // Copies always land on the heap.
    Bitvector copied = arena_and;
    ASSERT_FALSE(copied.arena_backed());
    ASSERT_EQ(copied, arena_and);
  }
  EXPECT_GT(arena.high_water_bytes(), 0);
}

}  // namespace
}  // namespace colossal
