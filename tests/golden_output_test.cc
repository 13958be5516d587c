// Golden output digests for the whole mining pipeline. The determinism
// tests compare thread counts against each other, so a change that
// altered the answer identically at every thread count would pass them;
// these pin the answer itself. Each digest is FNV-1a over the rendered
// MineColossal result: pool size, iteration count, convergence, then
// every pattern's items, support and support set in answer order.
//
// A deliberate change to mining output must re-pin these digests and
// say why; an optimization must leave them untouched.

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/colossal_miner.h"
#include "data/generators.h"

namespace colossal {
namespace {

enum class Dataset { kMicroarray, kProgramTrace, kDiagPlus };

struct GoldenCase {
  const char* name;
  Dataset dataset;
  // Generator seed for the generated datasets and the miner's RNG seed.
  uint64_t seed;
  double sigma;  // < 0: use min_support_count
  int64_t min_support_count;
  int k;
  int pool_size;
  uint64_t digest;
};

LabeledDatabase Generate(const GoldenCase& golden) {
  switch (golden.dataset) {
    case Dataset::kMicroarray:
      return MakeMicroarrayLike(golden.seed);
    case Dataset::kProgramTrace:
      return MakeProgramTraceLike(golden.seed);
    case Dataset::kDiagPlus:
      return MakeDiagPlus(40, 20);
  }
  return MakeDiagPlus(40, 20);
}

std::string Render(const ColossalMiningResult& result) {
  std::string out = "pool=" + std::to_string(result.initial_pool_size) +
                    " iterations=" + std::to_string(result.iterations) +
                    " converged=" + std::to_string(result.converged) + "\n";
  for (const Pattern& pattern : result.patterns) {
    out += pattern.items.ToString();
    out += ' ';
    out += std::to_string(pattern.support);
    out += ' ';
    out += pattern.support_set.ToString();
    out += '\n';
  }
  return out;
}

std::string Hex(uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void PrintTo(const GoldenCase& golden, std::ostream* out) {
  *out << golden.name;
}

class GoldenOutputTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenOutputTest, DigestMatchesAtEveryThreadCount) {
  const GoldenCase& golden = GetParam();
  const LabeledDatabase labeled = Generate(golden);
  ColossalMinerOptions options;
  options.sigma = golden.sigma;
  options.min_support_count = golden.min_support_count;
  options.k = golden.k;
  options.initial_pool_max_size = golden.pool_size;
  options.seed = golden.seed;
  for (int threads : {1, 4}) {
    options.num_threads = threads;
    StatusOr<ColossalMiningResult> result = MineColossal(labeled.db, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string rendered = Render(*result);
    EXPECT_EQ(Hex(HashBytes(rendered.data(), rendered.size())),
              Hex(golden.digest))
        << golden.name << " at num_threads=" << threads;
  }
}

// Digests captured from the implementation that predates the bitmap
// absorbed check, the one-popcount ball distance and the position-based
// pool index.
INSTANTIATE_TEST_SUITE_P(
    Pipelines, GoldenOutputTest,
    ::testing::Values(
        GoldenCase{"microarray_seed1", Dataset::kMicroarray, 1, -1.0, 30, 30,
                   2, 0xffc9cbb2dab617fcULL},
        GoldenCase{"microarray_seed2", Dataset::kMicroarray, 2, -1.0, 30, 30,
                   2, 0x7928967212482afcULL},
        GoldenCase{"program_trace_seed1", Dataset::kProgramTrace, 1, 0.03, 1,
                   100, 3, 0x3ea92aae9a2134e4ULL},
        GoldenCase{"program_trace_seed2", Dataset::kProgramTrace, 2, 0.03, 1,
                   100, 3, 0x34fb73623ba0bc54ULL},
        GoldenCase{"diagplus_seed1", Dataset::kDiagPlus, 1, -1.0, 20, 100, 2,
                   0x6b57a93382553abeULL},
        GoldenCase{"diagplus_seed2", Dataset::kDiagPlus, 2, -1.0, 20, 100, 2,
                   0x321a1db15625bd06ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace colossal
