#include "core/pattern_distance.h"

#include "common/check.h"

namespace colossal {

namespace {
// Tolerance for boundary membership in ball queries. Theorem 2's bound is
// attained exactly on adversarial inputs (e.g., Diag_n), and the distance
// is a ratio of small integers, so a tiny epsilon keeps those cases in.
constexpr double kBallEpsilon = 1e-9;
}  // namespace

double PatternDistance(const Pattern& a, const Pattern& b) {
  return Bitvector::JaccardDistance(a.support_set, b.support_set);
}

double BallRadius(double tau) {
  COLOSSAL_CHECK(tau > 0.0 && tau <= 1.0) << "tau=" << tau;
  return 1.0 - 1.0 / (2.0 / tau - 1.0);
}

std::vector<int64_t> BallQuery(const std::vector<Pattern>& pool,
                               const Pattern& center, double radius) {
  std::vector<int64_t> members;
  const bool keep_disjoint = 1.0 <= radius + kBallEpsilon;
  for (size_t i = 0; i < pool.size(); ++i) {
    const Pattern& other = pool[i];
    // One popcount per pair: |D_α ∪ D_β| = |D_α| + |D_β| − |D_α ∩ D_β|
    // from the supports the patterns already hold. On short support
    // sets (one word on ALL-like data) each kernel call costs more
    // than its word work, so the call count is what matters.
    const int64_t common =
        Bitvector::AndCount(other.support_set, center.support_set);
    if (common == 0) {
      // Disjoint support sets sit at distance 1 (or 0 when both are
      // empty, by convention).
      if (keep_disjoint || (other.support == 0 && center.support == 0)) {
        members.push_back(static_cast<int64_t>(i));
      }
      continue;
    }
    const int64_t united = other.support + center.support - common;
    // The same expression as Bitvector::JaccardDistance, so boundary
    // cases round identically.
    const double distance =
        1.0 - static_cast<double>(common) / static_cast<double>(united);
    if (distance <= radius + kBallEpsilon) {
      members.push_back(static_cast<int64_t>(i));
    }
  }
  return members;
}

}  // namespace colossal
