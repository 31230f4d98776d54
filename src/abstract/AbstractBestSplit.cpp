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

/// Everything one feature's scoring shard produces: its Φ∃ members in
/// enumeration (ascending threshold) order, its contribution to lubΦ∀,
/// and whether the meter tripped while scoring it. Shards fold in
/// feature-index order, which replays the serial emission order exactly;
/// the lubΦ∀ fold is a `min` of doubles and therefore exact in any order.
struct FeatureShard {
  std::vector<ScoredCandidate> Existential;
  double LubUniversal = std::numeric_limits<double>::infinity();
  bool AnyUniversal = false;
  bool Interrupted = false;
};

/// Scores one feature's candidates. Pure per-feature work: reads only the
/// shared prepass and the ⟨T,n⟩ summary, writes only \p Out and the two
/// caller-owned scratch buffers (resized here; contents are overwritten
/// before use) — safe to run on any executor concurrently with other
/// features' shards as long as each executor brings its own scratch.
void scoreFeatureShard(const SplitEnumerationPrepass &Pre, unsigned Feature,
                       const std::vector<uint32_t> &Totals, uint32_t Total,
                       uint32_t N, CprobTransformerKind Kind,
                       GiniLiftingKind Lifting, const ResourceMeter *Meter,
                       FeatureShard &Out, std::vector<uint32_t> &PosScratch,
                       std::vector<uint32_t> &NegCounts) {
  unsigned NumClasses = static_cast<unsigned>(Totals.size());
  PosScratch.resize(NumClasses);
  NegCounts.resize(NumClasses);

  // Cooperative-cancellation checkpoints: once per shard up front — the
  // per-64-candidates counter below is shard-local, so without this a
  // many-features/few-candidates-each dataset (the MNIST-like regime)
  // would poll only at call entry and interrupt latency would grow with
  // the feature count — then every 64 candidates while scoring, since
  // scoring dominates the cost of this transformer. A tripped shard stops
  // scoring and idles through its remaining candidates; the fold discards
  // everything and reports the interrupt.
  if (Meter && Meter->interrupted()) {
    Out.Interrupted = true;
    return;
  }
  unsigned CandidatesSinceCheck = 0;

  // The enumerator already skips trivial candidates, so everything it
  // produces is in Φ∃: both sides non-empty as row sets, hence non-empty
  // for at least one concretization. Splits are exact here because the
  // symbolic thresholds come from adjacent values of this very row set
  // (docs/ARCHITECTURE.md, "Deviations from the paper"), so the side
  // budgets are min(n, |side|) per equation (1).
  forEachFeatureCandidateSplit(
      Pre, Feature, PredicateMode::SymbolicInterval, PosScratch,
      [&](const SplitPredicate &Pred, const std::vector<uint32_t> &PosCounts,
          uint32_t PosTotal) {
        if (Out.Interrupted)
          return;
        if (Meter && ++CandidatesSinceCheck >= 64) {
          CandidatesSinceCheck = 0;
          if (Meter->interrupted()) {
            Out.Interrupted = true;
            return;
          }
        }
        uint32_t NegTotal = Total - PosTotal;
        for (unsigned C = 0; C < NumClasses; ++C)
          NegCounts[C] = Totals[C] - PosCounts[C];
        Interval Score = abstractSplitScore(
            PosCounts, PosTotal, std::min(N, PosTotal), NegCounts, NegTotal,
            std::min(N, NegTotal), Kind, Lifting);
        Out.Existential.emplace_back(Pred, Score.lb());
        // Φ∀ membership: neither side can be emptied by dropping n rows.
        if (PosTotal > N && NegTotal > N) {
          Out.AnyUniversal = true;
          Out.LubUniversal = std::min(Out.LubUniversal, Score.ub());
        }
      });
}

} // namespace

std::optional<PredicateSet>
antidote::abstractBestSplit(const SplitContext &Ctx,
                            const AbstractDataset &Data,
                            CprobTransformerKind Kind,
                            GiniLiftingKind Lifting,
                            const ResourceMeter *Meter, ThreadPool *Pool,
                            unsigned SplitJobs) {
  assert(!Data.isEmptySet() && "bestSplit# of the empty abstract set");
  // An already-tripped meter means the caller is winding down: answer
  // nullopt deterministically instead of letting a small candidate set
  // slip through the every-64-candidates poll below.
  if (Meter && Meter->interrupted())
    return std::nullopt;
  const std::vector<uint32_t> &Totals = Data.counts();
  uint32_t Total = Data.size();
  uint32_t N = Data.budget();
  unsigned NumFeatures = Data.base().numFeatures();

  SplitEnumerationPrepass Pre(Ctx, Data.rows());
  std::vector<FeatureShard> Shards(NumFeatures);
  auto Score = [&](size_t F) {
    // Per-executor scratch, reused across shards: bestSplit# runs once
    // per disjunct on hot frontiers, so per-shard allocation here would
    // put ~2 x numFeatures mallocs on the hottest path in the verifier.
    thread_local std::vector<uint32_t> PosScratch;
    thread_local std::vector<uint32_t> NegScratch;
    scoreFeatureShard(Pre, static_cast<unsigned>(F), Totals, Total, N, Kind,
                      Lifting, Meter, Shards[F], PosScratch, NegScratch);
  };

  bool TrippedMeter = false;
  bool Sharded = Pool && Pool->size() > 0 && SplitJobs != 1 && NumFeatures > 1;
  if (Sharded) {
    unsigned Jobs = SplitJobs == 0 ? ThreadPool::hardwareConcurrency()
                                   : SplitJobs;
    // Chunk size 1: per-feature costs are wildly uneven (a boolean feature
    // contributes one candidate, a dense real feature thousands), and at
    // feature-count granularity the cursor traffic is negligible.
    OrderedFanout Fanout(Pool, NumFeatures, /*ChunkSize=*/1, Score,
                         /*WindowChunks=*/0, /*MaxHelpers=*/Jobs - 1);
    for (unsigned F = 0; F < NumFeatures; ++F) {
      Fanout.awaitItem(F);
      if (Shards[F].Interrupted) {
        // Stop paying for shards that will be discarded anyway.
        Fanout.cancelRemaining();
        TrippedMeter = true;
        break;
      }
    }
  } else {
    for (unsigned F = 0; F < NumFeatures && !TrippedMeter; ++F) {
      Score(F);
      TrippedMeter = Shards[F].Interrupted;
    }
  }

  // A truncated enumeration must not leak: deciding ⋄-membership or the
  // Φ∀ filter from a partial candidate set could fabricate terminals the
  // untruncated run would never produce (spuriously refuting domination).
  // Returning nullopt keeps every recorded terminal genuine — and unlike
  // the previous ⊥-sentinel, a caller cannot consume it by accident; the
  // caller's next meter poll turns the run into Timeout/Cancelled before
  // the missing successors could matter.
  if (TrippedMeter)
    return std::nullopt;

  double LubUniversal = std::numeric_limits<double>::infinity();
  bool AnyUniversal = false;
  size_t NumCandidates = 0;
  for (const FeatureShard &Shard : Shards) {
    NumCandidates += Shard.Existential.size();
    if (Shard.AnyUniversal) {
      AnyUniversal = true;
      LubUniversal = std::min(LubUniversal, Shard.LubUniversal);
    }
  }

  PredicateSet Result;
  Result.reserve(NumCandidates);
  if (!AnyUniversal) {
    // No predicate is guaranteed non-trivial for every concretization, so
    // some concretization may make bestSplit return ⋄ (§4.6).
    for (const FeatureShard &Shard : Shards)
      for (const ScoredCandidate &Cand : Shard.Existential)
        Result.add(Cand.Pred);
    Result.addNull();
  } else {
    for (const FeatureShard &Shard : Shards)
      for (const ScoredCandidate &Cand : Shard.Existential)
        if (Cand.ScoreLb <= LubUniversal)
          Result.add(Cand.Pred);
  }
  Result.canonicalize();
  return Result;
}
