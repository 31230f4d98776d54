//===- abstract/AbstractBestSplit.cpp - bestSplit# ----------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractBestSplit.h"

#include <limits>

using namespace antidote;

namespace {

/// A Φ∃ member together with its score interval's lower bound.
struct ScoredCandidate {
  SplitPredicate Pred;
  double ScoreLb;

  ScoredCandidate(SplitPredicate Pred, double ScoreLb)
      : Pred(Pred), ScoreLb(ScoreLb) {}
};

} // namespace

std::optional<PredicateSet>
antidote::abstractBestSplit(const SplitContext &Ctx,
                            const AbstractDataset &Data,
                            CprobTransformerKind Kind,
                            GiniLiftingKind Lifting,
                            const ResourceMeter *Meter) {
  assert(!Data.isEmptySet() && "bestSplit# of the empty abstract set");
  // An already-tripped meter means the caller is winding down: answer
  // nullopt deterministically instead of letting a small candidate set
  // slip through the every-64-candidates poll below.
  if (Meter && Meter->interrupted())
    return std::nullopt;
  const std::vector<uint32_t> &Totals = Data.counts();
  unsigned NumClasses = static_cast<unsigned>(Totals.size());
  uint32_t Total = Data.size();
  uint32_t N = Data.budget();
  unsigned NumFeatures = Data.base().numFeatures();

  SplitEnumerationPrepass Pre(Ctx, Data.rows());
  std::vector<uint32_t> PosScratch(NumClasses);
  std::vector<uint32_t> NegCounts(NumClasses);
  std::vector<ScoredCandidate> Existential;
  double LubUniversal = std::numeric_limits<double>::infinity();
  bool AnyUniversal = false;

  // Cooperative-cancellation checkpoints: once per feature — without it a
  // many-features/few-candidates-each dataset (the MNIST-like regime)
  // would poll only rarely, and interrupt latency would grow with the
  // feature count — and every 64 candidates while scoring, since scoring
  // dominates the cost of this transformer. A tripped meter stops the
  // scan; everything scored so far is discarded.
  bool Interrupted = false;
  unsigned CandidatesSinceCheck = 0;
  for (unsigned F = 0; F < NumFeatures && !Interrupted; ++F) {
    if (Meter && Meter->interrupted()) {
      Interrupted = true;
      break;
    }
    // The enumerator already skips trivial candidates, so everything it
    // produces is in Φ∃: both sides non-empty as row sets, hence non-empty
    // for at least one concretization. Splits are exact here because the
    // symbolic thresholds come from adjacent values of this very row set
    // (docs/ARCHITECTURE.md, "Deviations from the paper"), so the side
    // budgets are min(n, |side|) per equation (1).
    forEachFeatureCandidateSplit(
        Pre, F, PredicateMode::SymbolicInterval, PosScratch,
        [&](const SplitPredicate &Pred,
            const std::vector<uint32_t> &PosCounts, uint32_t PosTotal) {
          if (Interrupted)
            return;
          if (Meter && ++CandidatesSinceCheck >= 64) {
            CandidatesSinceCheck = 0;
            if (Meter->interrupted()) {
              Interrupted = true;
              return;
            }
          }
          uint32_t NegTotal = Total - PosTotal;
          for (unsigned C = 0; C < NumClasses; ++C)
            NegCounts[C] = Totals[C] - PosCounts[C];
          Interval Score = abstractSplitScore(
              PosCounts, PosTotal, std::min(N, PosTotal), NegCounts,
              NegTotal, std::min(N, NegTotal), Kind, Lifting);
          Existential.emplace_back(Pred, Score.lb());
          // Φ∀ membership: neither side can be emptied by dropping n rows.
          if (PosTotal > N && NegTotal > N) {
            AnyUniversal = true;
            LubUniversal = std::min(LubUniversal, Score.ub());
          }
        });
  }

  // A truncated enumeration must not leak: deciding ⋄-membership or the
  // Φ∀ filter from a partial candidate set could fabricate terminals the
  // untruncated run would never produce (spuriously refuting domination).
  // Returning nullopt keeps every recorded terminal genuine — and unlike
  // the previous ⊥-sentinel, a caller cannot consume it by accident; the
  // caller's next meter poll turns the run into Timeout/Cancelled before
  // the missing successors could matter.
  if (Interrupted)
    return std::nullopt;

  PredicateSet Result;
  Result.reserve(Existential.size());
  if (!AnyUniversal) {
    // No predicate is guaranteed non-trivial for every concretization, so
    // some concretization may make bestSplit return ⋄ (§4.6).
    for (const ScoredCandidate &Cand : Existential)
      Result.add(Cand.Pred);
    Result.addNull();
  } else {
    for (const ScoredCandidate &Cand : Existential)
      if (Cand.ScoreLb <= LubUniversal)
        Result.add(Cand.Pred);
  }
  Result.canonicalize();
  return Result;
}
