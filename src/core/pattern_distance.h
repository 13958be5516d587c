#ifndef COLOSSAL_CORE_PATTERN_DISTANCE_H_
#define COLOSSAL_CORE_PATTERN_DISTANCE_H_

#include <vector>

#include "core/pattern.h"

namespace colossal {

// The paper's pattern metric and the ball primitive built on it.

// Pattern distance (Definition 6):
//   Dist(α, β) = 1 − |D_α ∩ D_β| / |D_α ∪ D_β|,
// the Jaccard distance of the support sets. (S, Dist) is a metric space
// (Theorem 1); the triangle inequality is exercised as a property test.
double PatternDistance(const Pattern& a, const Pattern& b);

// The ball radius r(τ) = 1 − 1/(2/τ − 1) of Theorem 2: any two τ-core
// patterns of a common pattern are within r(τ) of each other, so a range
// query of this radius around a seed finds every other core pattern of
// the seed's (unknown) colossal ancestor that is present in the pool.
// Requires τ ∈ (0, 1].
double BallRadius(double tau);

// Indices of every pool pattern within `radius` of `center` (inclusive,
// with a small epsilon so boundary cases like Diag's exact-2/3 distances
// are kept). The center itself, if present in the pool, is included.
// Distances use each pattern's held `support` as |D_α|, so every
// pattern's support must equal the popcount of its support set (as
// MakePattern, the miners, fusion and the shard stitch all set it).
std::vector<int64_t> BallQuery(const std::vector<Pattern>& pool,
                               const Pattern& center, double radius);

}  // namespace colossal

#endif  // COLOSSAL_CORE_PATTERN_DISTANCE_H_
