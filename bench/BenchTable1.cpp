//===- bench/BenchTable1.cpp - Table 1 reproduction ----------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Regenerates the paper's Table 1: per-dataset sizes, feature/class
// structure, and DTrace test-set accuracy at tree depths 1-4. Paper values
// are printed alongside for comparison; dataset provenance differs (our
// synthetic equivalents; docs/ARCHITECTURE.md, "Deviations from the
// paper"), so the comparison is about bands, not digits.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "antidote/Report.h"
#include "concrete/DecisionTree.h"
#include "support/Timer.h"

#include <cstdio>

using namespace antidote;

namespace {

/// Table 1 rows as published.
struct PaperRow {
  const char *Name;
  const char *Features;
  const char *Classes;
  double Accuracy[4];
};

} // namespace

static const PaperRow PaperRows[] = {
    {"iris", "R^4", "3", {20.0, 90.0, 90.0, 90.0}},
    {"mammography", "R^5", "2", {80.7, 83.1, 81.9, 80.7}},
    {"wdbc", "R^30", "2", {91.2, 92.0, 92.9, 94.7}},
    {"mnist17-binary", "{0,1}^784", "2", {95.7, 97.4, 97.8, 98.3}},
    {"mnist17-real", "R^784", "2", {95.6, 97.6, 98.3, 98.7}},
};

int main() {
  BenchScale Scale = benchScaleFromEnv();
  std::printf("=== Table 1 reproduction: dataset metrics and DTrace "
              "test-set accuracies ===\n");
  std::printf("scale: %s\n\n", Scale == BenchScale::Full ? "full" : "scaled");

  TableWriter Table({"dataset", "train", "test", "features", "classes",
                     "d=1", "d=2", "d=3", "d=4", "paper d=1..4"});
  Timer Total;
  for (const PaperRow &Paper : PaperRows) {
    // Table 1 reports the datasets themselves; build MNIST at full size
    // even in scaled mode unless that proves too slow on the host —
    // tree learning is a one-time cost, unlike verification.
    BenchmarkDataset Bench = loadBenchmarkDataset(Paper.Name, Scale);
    const Dataset &Train = Bench.Split.Train;
    const Dataset &Test = Bench.Split.Test;
    SplitContext Ctx(Train);
    RowIndexList Rows = allRows(Train);
    std::string Accuracies[4];
    std::vector<std::string> Row = {
        Paper.Name, std::to_string(Train.numRows()),
        std::to_string(Test.numRows()), Paper.Features, Paper.Classes};
    for (unsigned Depth = 1; Depth <= 4; ++Depth) {
      DecisionTree Tree = DecisionTree::learn(Ctx, Rows, Depth);
      Row.push_back(formatPercent(testAccuracy(Tree, Test)));
    }
    char PaperCell[64];
    std::snprintf(PaperCell, sizeof(PaperCell), "%.1f/%.1f/%.1f/%.1f",
                  Paper.Accuracy[0], Paper.Accuracy[1], Paper.Accuracy[2],
                  Paper.Accuracy[3]);
    Row.push_back(PaperCell);
    Table.addRow(std::move(Row));
    (void)Accuracies;
  }
  Table.print();
  std::printf("\nnotes:\n");
  std::printf("  - datasets are synthetic stand-ins with the published "
              "shapes\n    (docs/ARCHITECTURE.md, \"Deviations from the "
              "paper\")\n");
  std::printf("  - the paper's iris depth-1 outlier (20%%) stems from its "
              "specific 80/20 split;\n    our generator reproduces the "
              "50/50-leaf *tie* (footnote 10) that drives the\n    "
              "depth-1 robustness behaviour, not that accuracy value\n");
  std::printf("total time: %s\n", formatSeconds(Total.seconds()).c_str());
  return 0;
}
