// Figure 10: run time on the ALL (microarray) stand-in as the minimum
// support threshold decreases from 31 to 21, for three miners:
//
//   * LCM_maximal stand-in — complete maximal mining; explodes once
//     cross-signature item mixes and the confusable block become
//     frequent (σ ≲ 27);
//   * TFP stand-in — top-k closed with the paper's colossal-oriented
//     min-length constraint (min_l = 100, k = 1000): the top-k heap cannot fill, so
//     its dynamic pruning cannot engage and the search degenerates to
//     full closed enumeration — exploding at small σ exactly as the
//     paper shows;
//   * Pattern-Fusion — pool of size ≤ 2, τ = 0.5, K = 100: its cost is
//     dominated by ball queries over the initial pool and stays level.
//
// Baselines run under a node budget; '>' marks budget exhaustion (the
// paper's curves similarly leave the plotted range).

#include <cstdio>
#include <iostream>
#include <string>

#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/colossal_miner.h"
#include "data/generators.h"
#include "mining/maximal_miner.h"
#include "mining/topk_miner.h"

int main() {
  using namespace colossal;

  constexpr int64_t kBaselineNodeBudget = 150'000'000;
  LabeledDatabase labeled = MakeMicroarrayLike(42);

  TablePrinter table({"min support", "lcm_maximal_s", "tfp_topk_s",
                      "pattern_fusion_s", "pf_largest"});

  for (int sigma = 31; sigma >= 21; --sigma) {
    MinerOptions maximal_options;
    maximal_options.min_support_count = sigma;
    maximal_options.max_nodes = kBaselineNodeBudget;
    Stopwatch maximal_watch;
    StatusOr<MiningResult> maximal = MineMaximal(labeled.db, maximal_options);
    const double maximal_seconds = maximal_watch.ElapsedSeconds();
    if (!maximal.ok()) {
      std::fprintf(stderr, "maximal failed: %s\n",
                   maximal.status().ToString().c_str());
      return 1;
    }

    TopKOptions topk_options;
    topk_options.k = 1000;
    topk_options.min_pattern_size = 100;
    topk_options.min_support_count = sigma;
    topk_options.max_nodes = kBaselineNodeBudget;
    Stopwatch topk_watch;
    StatusOr<MiningResult> topk = MineTopKClosed(labeled.db, topk_options);
    const double topk_seconds = topk_watch.ElapsedSeconds();
    if (!topk.ok()) {
      std::fprintf(stderr, "topk failed: %s\n",
                   topk.status().ToString().c_str());
      return 1;
    }

    ColossalMinerOptions fusion_options;
    fusion_options.min_support_count = sigma;
    fusion_options.initial_pool_max_size = 2;
    fusion_options.tau = 0.5;
    fusion_options.k = 100;
    fusion_options.seed = 1;
    Stopwatch fusion_watch;
    StatusOr<ColossalMiningResult> fusion =
        MineColossal(labeled.db, fusion_options);
    const double fusion_seconds = fusion_watch.ElapsedSeconds();
    if (!fusion.ok()) {
      std::fprintf(stderr, "pattern fusion failed: %s\n",
                   fusion.status().ToString().c_str());
      return 1;
    }

    table.AddRow(
        {std::to_string(sigma),
         std::string(maximal->stats.budget_exceeded ? ">" : "")
             .append(TablePrinter::FormatSeconds(maximal_seconds)),
         std::string(topk->stats.budget_exceeded ? ">" : "")
             .append(TablePrinter::FormatSeconds(topk_seconds)),
         TablePrinter::FormatSeconds(fusion_seconds),
         std::to_string(
             fusion->patterns.empty() ? 0 : fusion->patterns[0].size())});
  }

  std::printf("Figure 10 — run time on the ALL stand-in vs minimum support "
              "(baseline budget %lld nodes; '>' = budget exceeded)\n\n",
              static_cast<long long>(kBaselineNodeBudget));
  table.Print(std::cout);
  return 0;
}
