//===- bench/BenchFig8Iris.cpp - Figure 8 reproduction -------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Regenerates Figure 8: efficacy / performance / memory on the Iris-like
// dataset (the one benchmark small enough that the paper plots it on
// linear axes).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace antidote;
using namespace antidote::benchutil;

int main() {
  FigureBenchSpec Spec;
  Spec.DatasetName = "iris";
  Spec.PaperFigure = "Figure 8";
  Spec.Full = paperScaleConfig();
  Spec.Scaled = scaledConfig();
  Spec.Scaled.InstanceLimits.TimeoutSeconds = 2.0;
  Spec.PaperShapeNotes = {
      "Depth 1: the paper verifies almost nothing even at n = 1, since its "
      "depth-1 tree has an exact 50/50 leaf (footnote 10) that any single "
      "removal could flip. The 120-row synthetic surrogate (scaled run, 30 "
      "inputs) verifies 30% at depth 1 for n = 1-3 in both domains, and 0% "
      "from n = 4",
      "Depth >= 2: the paper verifies a large fraction at small n. The "
      "surrogate's depth-2 disjuncts run verifies 80% at n = 1, 53% at "
      "n = 2 and 20% at n = 3-4, then keeps one input (3.3%) at n = 8 and "
      "10 and none from n = 11; depth 3 falls from 47% at n = 1 to 0% at "
      "n = 4, and depth 4 verifies 7% at n = 1 only",
      "Times are fractions of a second, memory a few MB — the small-scale "
      "corner of the evaluation",
  };
  runFigureBench(Spec);
  return 0;
}
