//===- bench/BenchAblation.cpp - Design-choice ablations ------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Ablates the three transformer/domain design choices docs/ARCHITECTURE.md
// ("Deviations from the paper") calls out:
//
//   (a) cprob#: the optimal extremal-average transformer (footnote 6) vs
//       the naive interval-division lifting,
//   (b) ent#: the exact per-term image of x(1-x) vs the literal
//       ι([1,1]−ι) interval arithmetic of the §4.4 text,
//   (c) the disjunct cap of the capped domain — the §6.3 future-work
//       strategy trading precision for bounded memory.
//
// Each panel reports verified counts (and cost) on the mammography-like
// benchmark so the effect of every choice is directly visible.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "abstract/AbstractBestSplit.h"
#include "antidote/Report.h"
#include "antidote/Verifier.h"
#include "support/Timer.h"

#include <cstdio>

using namespace antidote;

namespace {

/// Outcome counters for one verifier configuration over a query batch.
struct BatchOutcome {
  unsigned Verified = 0;
  unsigned Attempted = 0;
  double Seconds = 0.0;
  double PeakDisjuncts = 0.0;
};

BatchOutcome runBatch(const Verifier &V, const Dataset &Test,
                      const std::vector<uint32_t> &Rows, uint32_t Budget,
                      const VerifierConfig &Config) {
  BatchOutcome Outcome;
  for (uint32_t Row : Rows) {
    Certificate Cert = V.verify(Test.row(Row), Budget, Config);
    ++Outcome.Attempted;
    Outcome.Verified += Cert.isRobust();
    Outcome.Seconds += Cert.Seconds;
    Outcome.PeakDisjuncts += static_cast<double>(Cert.PeakDisjuncts);
  }
  return Outcome;
}

} // namespace

int main() {
  BenchmarkDataset Bench =
      loadBenchmarkDataset("mammography", benchScaleFromEnv());
  const Dataset &Train = Bench.Split.Train;
  const Dataset &Test = Bench.Split.Test;
  Verifier V(Train);
  std::printf("=== Ablations (mammography-like, %u train rows, %zu "
              "queries) ===\n\n",
              Train.numRows(), Bench.VerifyRows.size());

  // (a) cprob# transformer.
  {
    std::printf("--- (a) cprob#: optimal (footnote 6) vs naive interval "
                "division ---\n");
    TableWriter Table({"n", "optimal verified", "naive verified",
                       "optimal avg time", "naive avg time"});
    for (uint32_t N : {1u, 2u, 4u, 8u, 16u}) {
      VerifierConfig Optimal;
      Optimal.Depth = 2;
      Optimal.Domain = AbstractDomainKind::Disjuncts;
      Optimal.Limits.TimeoutSeconds = 2.0;
      VerifierConfig Naive = Optimal;
      Naive.Cprob = CprobTransformerKind::NaiveInterval;
      BatchOutcome A = runBatch(V, Test, Bench.VerifyRows, N, Optimal);
      BatchOutcome B = runBatch(V, Test, Bench.VerifyRows, N, Naive);
      Table.addRow({std::to_string(N), std::to_string(A.Verified),
                    std::to_string(B.Verified),
                    formatSeconds(A.Seconds / A.Attempted),
                    formatSeconds(B.Seconds / B.Attempted)});
    }
    Table.print();
    std::printf("\n");
  }

  // (b) ent# lifting.
  {
    std::printf("--- (b) ent#: exact per-term image vs literal interval "
                "arithmetic ---\n");
    TableWriter Table({"n", "exact-term verified", "natural verified",
                       "exact |bestSplit#|", "natural |bestSplit#|"});
    SplitContext Ctx(Train);
    AbstractDataset Whole = AbstractDataset::entire(Train, 0);
    for (uint32_t N : {1u, 2u, 4u, 8u, 16u}) {
      VerifierConfig Exact;
      Exact.Depth = 2;
      Exact.Domain = AbstractDomainKind::Disjuncts;
      Exact.Limits.TimeoutSeconds = 2.0;
      VerifierConfig Natural = Exact;
      Natural.Gini = GiniLiftingKind::NaturalLifting;
      BatchOutcome A = runBatch(V, Test, Bench.VerifyRows, N, Exact);
      BatchOutcome B = runBatch(V, Test, Bench.VerifyRows, N, Natural);
      // Root bestSplit# sizes: how many tied predicates each lifting keeps.
      AbstractDataset Root = AbstractDataset::entire(Train, N);
      size_t ExactPsi =
          abstractBestSplit(Ctx, Root, CprobTransformerKind::Optimal,
                            GiniLiftingKind::ExactTerm)
              ->size();
      size_t NaturalPsi =
          abstractBestSplit(Ctx, Root, CprobTransformerKind::Optimal,
                            GiniLiftingKind::NaturalLifting)
              ->size();
      Table.addRow({std::to_string(N), std::to_string(A.Verified),
                    std::to_string(B.Verified), std::to_string(ExactPsi),
                    std::to_string(NaturalPsi)});
    }
    Table.print();
    std::printf("(looser ent# keeps more tied predicates alive at the root "
                "and proves less)\n\n");
    (void)Whole;
  }

  // (c) disjunct cap sweep (§6.3's proposed strategy).
  {
    std::printf("--- (c) capped disjuncts: precision vs memory (depth 3, "
                "n = 4) ---\n");
    TableWriter Table({"cap", "verified", "avg time", "avg peak disjuncts"});
    for (size_t Cap : {size_t(1), size_t(2), size_t(4), size_t(16),
                       size_t(64), size_t(0)}) {
      VerifierConfig Config;
      Config.Depth = 3;
      Config.Limits.TimeoutSeconds = 2.0;
      if (Cap == 0) {
        Config.Domain = AbstractDomainKind::Disjuncts;
      } else {
        Config.Domain = AbstractDomainKind::DisjunctsCapped;
        Config.DisjunctCap = Cap;
      }
      BatchOutcome Outcome = runBatch(V, Test, Bench.VerifyRows, 4, Config);
      Table.addRow({Cap == 0 ? "unbounded" : std::to_string(Cap),
                    std::to_string(Outcome.Verified),
                    formatSeconds(Outcome.Seconds / Outcome.Attempted),
                    formatDouble(Outcome.PeakDisjuncts / Outcome.Attempted,
                                 1)});
    }
    Table.print();
    std::printf("(cap 1 behaves like Box after the first level; the "
                "unbounded row is §5.2's domain)\n");
  }
  return 0;
}
