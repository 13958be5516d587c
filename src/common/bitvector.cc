#include "common/bitvector.h"

#include <bit>
#include <cstring>
#include <new>

#include "common/arena.h"
#include "common/bitvector_kernels.h"
#include "common/byte_io.h"
#include "common/check.h"

namespace colossal {

namespace {
constexpr int kWordBits = 64;

int64_t WordCount(int64_t num_bits) {
  return (num_bits + kWordBits - 1) / kWordBits;
}

// Mask of the valid bits in the last word of a `num_bits` vector; all
// ones when the length is word-aligned. The single source of truth for
// trailing-bit canonicalization (ClearTrailingBits) and ParseFrom's
// corrupt-padding rejection.
uint64_t TailMask(int64_t num_bits) {
  const int64_t tail = num_bits % kWordBits;
  return tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
}

// One word buffer, 64-byte aligned, from the arena when given, else the
// heap. Contents uninitialized.
uint64_t* AllocateWords(int64_t num_words, Arena* arena) {
  if (num_words == 0) return nullptr;
  const int64_t bytes = num_words * int64_t{sizeof(uint64_t)};
  if (arena != nullptr) {
    return static_cast<uint64_t*>(arena->Allocate(bytes));
  }
  return static_cast<uint64_t*>(::operator new(
      static_cast<size_t>(bytes), std::align_val_t{Arena::kAlignment}));
}

void FreeWords(uint64_t* words, Arena* arena) {
  // Arena storage is reclaimed wholesale by Arena::Reset.
  if (words != nullptr && arena == nullptr) {
    ::operator delete(words, std::align_val_t{Arena::kAlignment});
  }
}
}  // namespace

int64_t Bitvector::num_words() const { return WordCount(num_bits_); }

Bitvector::Bitvector(int64_t num_bits, bool value)
    : Bitvector(num_bits, nullptr, value) {}

Bitvector::Bitvector(int64_t num_bits, Arena* arena, bool value)
    : num_bits_(num_bits), arena_(arena) {
  COLOSSAL_CHECK(num_bits >= 0);
  const int64_t n = WordCount(num_bits);
  words_ = AllocateWords(n, arena);
  if (n > 0) {
    std::memset(words_, value ? 0xff : 0, static_cast<size_t>(n) * 8);
  }
  if (value) ClearTrailingBits();
}

Bitvector::Bitvector(const Bitvector& other)
    : Bitvector(other, nullptr) {}

Bitvector::Bitvector(const Bitvector& other, Arena* arena)
    : num_bits_(other.num_bits_), arena_(arena) {
  const int64_t n = num_words();
  words_ = AllocateWords(n, arena);
  if (n > 0) std::memcpy(words_, other.words_, static_cast<size_t>(n) * 8);
}

Bitvector::Bitvector(Bitvector&& other) noexcept
    : words_(other.words_), num_bits_(other.num_bits_), arena_(other.arena_) {
  other.words_ = nullptr;
  other.num_bits_ = 0;
  other.arena_ = nullptr;
}

Bitvector& Bitvector::operator=(const Bitvector& other) {
  if (this == &other) return *this;
  const int64_t n = WordCount(other.num_bits_);
  if (n != num_words()) {
    // Reallocate on this vector's own backing (assignment changes the
    // contents, never where they live).
    FreeWords(words_, arena_);
    words_ = AllocateWords(n, arena_);
  }
  num_bits_ = other.num_bits_;
  if (n > 0) std::memcpy(words_, other.words_, static_cast<size_t>(n) * 8);
  return *this;
}

Bitvector& Bitvector::operator=(Bitvector&& other) noexcept {
  if (this == &other) return *this;
  FreeWords(words_, arena_);
  words_ = other.words_;
  num_bits_ = other.num_bits_;
  arena_ = other.arena_;
  other.words_ = nullptr;
  other.num_bits_ = 0;
  other.arena_ = nullptr;
  return *this;
}

Bitvector::~Bitvector() { FreeWords(words_, arena_); }

Bitvector Bitvector::FromIndices(int64_t num_bits,
                                 const std::vector<int64_t>& indices) {
  Bitvector result(num_bits);
  for (int64_t index : indices) result.Set(index);
  return result;
}

void Bitvector::Set(int64_t bit) {
  COLOSSAL_CHECK(bit >= 0 && bit < num_bits_) << "bit=" << bit;
  words_[bit / kWordBits] |= uint64_t{1} << (bit % kWordBits);
}

void Bitvector::Reset(int64_t bit) {
  COLOSSAL_CHECK(bit >= 0 && bit < num_bits_) << "bit=" << bit;
  words_[bit / kWordBits] &= ~(uint64_t{1} << (bit % kWordBits));
}

bool Bitvector::Test(int64_t bit) const {
  COLOSSAL_CHECK(bit >= 0 && bit < num_bits_) << "bit=" << bit;
  return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1;
}

int64_t Bitvector::Count() const {
  return ActiveBitvectorKernels().popcount_words(words_, num_words());
}

bool Bitvector::None() const {
  return ActiveBitvectorKernels().none_words(words_, num_words());
}

bool Bitvector::AndNone(const Bitvector& a, const Bitvector& b) {
  COLOSSAL_CHECK(a.num_bits_ == b.num_bits_);
  return ActiveBitvectorKernels().and_none_words(a.words_, b.words_,
                                                 a.num_words());
}

void Bitvector::AndWith(const Bitvector& other) {
  COLOSSAL_CHECK(num_bits_ == other.num_bits_);
  ActiveBitvectorKernels().and_words(words_, other.words_, num_words());
}

void Bitvector::OrWith(const Bitvector& other) {
  COLOSSAL_CHECK(num_bits_ == other.num_bits_);
  ActiveBitvectorKernels().or_words(words_, other.words_, num_words());
}

void Bitvector::OrWithShifted(const Bitvector& other, int64_t offset) {
  COLOSSAL_CHECK(offset >= 0 && offset + other.num_bits_ <= num_bits_)
      << "offset=" << offset;
  ActiveBitvectorKernels().or_shifted_words(
      words_, other.words_, other.num_words(), offset / kWordBits,
      static_cast<int>(offset % kWordBits));
}

void Bitvector::AndNotWith(const Bitvector& other) {
  COLOSSAL_CHECK(num_bits_ == other.num_bits_);
  ActiveBitvectorKernels().andnot_words(words_, other.words_, num_words());
}

Bitvector Bitvector::And(const Bitvector& a, const Bitvector& b,
                         Arena* arena) {
  Bitvector result(a, arena);
  result.AndWith(b);
  return result;
}

Bitvector Bitvector::Or(const Bitvector& a, const Bitvector& b, Arena* arena) {
  Bitvector result(a, arena);
  result.OrWith(b);
  return result;
}

int64_t Bitvector::AndCount(const Bitvector& a, const Bitvector& b) {
  COLOSSAL_CHECK(a.num_bits_ == b.num_bits_);
  return ActiveBitvectorKernels().and_count_words(a.words_, b.words_,
                                                  a.num_words());
}

int64_t Bitvector::OrCount(const Bitvector& a, const Bitvector& b) {
  COLOSSAL_CHECK(a.num_bits_ == b.num_bits_);
  return ActiveBitvectorKernels().or_count_words(a.words_, b.words_,
                                                 a.num_words());
}

bool Bitvector::IsSubsetOf(const Bitvector& other) const {
  COLOSSAL_CHECK(num_bits_ == other.num_bits_);
  return ActiveBitvectorKernels().subset_words(words_, other.words_,
                                               num_words());
}

bool Bitvector::Intersects(const Bitvector& a, const Bitvector& b) {
  return !AndNone(a, b);
}

double Bitvector::JaccardDistance(const Bitvector& a, const Bitvector& b) {
  const int64_t united = OrCount(a, b);
  if (united == 0) return 0.0;
  const int64_t common = AndCount(a, b);
  return 1.0 - static_cast<double>(common) / static_cast<double>(united);
}

std::vector<int64_t> Bitvector::ToIndices() const {
  std::vector<int64_t> indices;
  indices.reserve(static_cast<size_t>(Count()));
  const int64_t n = num_words();
  for (int64_t w = 0; w < n; ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      indices.push_back(w * kWordBits + bit);
      word &= word - 1;
    }
  }
  return indices;
}

std::string Bitvector::ToString() const {
  std::string out;
  out.reserve(static_cast<size_t>(num_bits_));
  for (int64_t i = 0; i < num_bits_; ++i) out.push_back(Test(i) ? '1' : '0');
  return out;
}

uint64_t Bitvector::HashValue() const {
  // FNV-1a over words, seeded with the length so that equal prefixes of
  // different lengths do not collide trivially.
  uint64_t hash = 1469598103934665603ULL ^ static_cast<uint64_t>(num_bits_);
  const int64_t n = num_words();
  for (int64_t i = 0; i < n; ++i) {
    hash ^= words_[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool operator==(const Bitvector& a, const Bitvector& b) {
  if (a.num_bits_ != b.num_bits_) return false;
  const int64_t n = a.num_words();
  return n == 0 ||
         std::memcmp(a.words_, b.words_, static_cast<size_t>(n) * 8) == 0;
}

void Bitvector::AppendTo(std::string* out) const {
  AppendLittleEndian64(static_cast<uint64_t>(num_bits_), out);
  const int64_t n = num_words();
  for (int64_t i = 0; i < n; ++i) AppendLittleEndian64(words_[i], out);
}

int64_t Bitvector::SerializedBytes(int64_t num_bits) {
  return 8 + 8 * WordCount(num_bits);
}

StatusOr<Bitvector> Bitvector::ParseFrom(const std::string& data,
                                         size_t* pos) {
  uint64_t raw_bits = 0;
  if (!ReadLittleEndian64(data, pos, &raw_bits)) {
    return Status::InvalidArgument("bitvector: truncated length header");
  }
  const int64_t num_bits = static_cast<int64_t>(raw_bits);
  if (num_bits < 0) {
    return Status::InvalidArgument("bitvector: negative length");
  }
  // Bound the allocation by the bytes actually present: a corrupt length
  // header must yield a Status, not a bad_alloc. (Computed in uint64 so a
  // hostile length near INT64_MAX cannot overflow WordCount's addition.)
  const uint64_t words_needed = raw_bits / 64 + (raw_bits % 64 != 0 ? 1 : 0);
  if (*pos > data.size() || (data.size() - *pos) / 8 < words_needed) {
    return Status::InvalidArgument("bitvector: truncated words");
  }
  Bitvector result(num_bits);
  const int64_t n = result.num_words();
  for (int64_t w = 0; w < n; ++w) {
    if (!ReadLittleEndian64(data, pos, &result.words_[w])) {
      return Status::InvalidArgument("bitvector: truncated words");
    }
  }
  if (n > 0 && (result.words_[n - 1] & ~TailMask(num_bits)) != 0) {
    return Status::InvalidArgument(
        "bitvector: set bits beyond declared length");
  }
  return result;
}

void Bitvector::ClearTrailingBits() {
  const int64_t n = num_words();
  if (n > 0) words_[n - 1] &= TailMask(num_bits_);
}

}  // namespace colossal
