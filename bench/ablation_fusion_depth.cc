// Ablation: variable merge depth in Fusion(α.CoreList). The paper's
// Fusion fuses *subsets* of the CoreList, so one seed can emit
// super-patterns of several depths; our implementation mirrors that with
// saturating first attempts plus randomly-capped later attempts
// (FuseColossalFromPool's variable_merge_depth = true, its default).
// This ablation compares that against always-saturating fusion on the
// Replace stand-in: without depth variety the result set collapses onto
// a handful of attractor patterns and the approximation error stops
// improving with K.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/colossal_miner.h"
#include "core/evaluation.h"
#include "data/generators.h"
#include "mining/closed_miner.h"

int main() {
  using namespace colossal;

  LabeledDatabase labeled = MakeProgramTraceLike(42);

  MinerOptions closed_options;
  closed_options.min_support_count = labeled.min_support_count;
  StatusOr<MiningResult> closed = MineClosed(labeled.db, closed_options);
  if (!closed.ok()) {
    std::fprintf(stderr, "closed mining failed: %s\n",
                 closed.status().ToString().c_str());
    return 1;
  }
  std::vector<Itemset> complete;
  for (const FrequentItemset& pattern : closed->patterns) {
    complete.push_back(pattern.items);
  }
  const std::vector<Itemset> q39 = FilterBySize(complete, 39);

  TablePrinter table({"variable depth", "K", "result patterns",
                      "err size>=39", "size44 found/3"});

  for (bool variable : {false, true}) {
    for (int k : {50, 200}) {
      StatusOr<std::vector<Pattern>> pool =
          BuildInitialPool(labeled.db, labeled.min_support_count, 3);
      if (!pool.ok()) {
        std::fprintf(stderr, "pool failed: %s\n",
                     pool.status().ToString().c_str());
        return 1;
      }
      ColossalMinerOptions options;
      options.min_support_count = labeled.min_support_count;
      options.tau = 0.5;
      options.k = k;
      options.seed = 5 + static_cast<uint64_t>(k);
      StatusOr<ColossalMiningResult> result = FuseColossalFromPool(
          labeled.db.num_transactions(), *std::move(pool), options,
          /*arena=*/nullptr, /*variable_merge_depth=*/variable);
      if (!result.ok()) {
        std::fprintf(stderr, "fusion failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::vector<Itemset> mined;
      for (const Pattern& pattern : result->patterns) {
        mined.push_back(pattern.items);
      }
      const std::vector<Itemset> p39 = FilterBySize(mined, 39);
      std::string error_cell = "-";
      if (!p39.empty()) {
        error_cell = TablePrinter::FormatDouble(
            EvaluateApproximation(p39, q39).error, 4);
      }
      int size44 = 0;
      for (const Itemset& path : labeled.planted) {
        for (const Itemset& pattern : mined) {
          if (pattern == path) {
            ++size44;
            break;
          }
        }
      }
      table.AddRow({variable ? "on" : "off", std::to_string(k),
                    std::to_string(mined.size()), error_cell,
                    std::to_string(size44)});
    }
  }

  std::printf("Ablation — fusion merge-depth variety on the Replace "
              "stand-in (σ = 0.03, τ = 0.5)\n\n");
  table.Print(std::cout);
  return 0;
}
