//===- concrete/BestSplit.cpp - Split candidate enumeration ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "concrete/BestSplit.h"

#include <algorithm>

using namespace antidote;

SplitContext::SplitContext(const Dataset &Base) : Base(&Base) {
  Orders.resize(Base.numFeatures());
  Values.resize(Base.numFeatures());
  for (unsigned F = 0; F < Base.numFeatures(); ++F) {
    if (Base.schema().FeatureKinds[F] != FeatureKind::Real)
      continue;
    const float *Col = Base.column(F);
    RowIndexList &Order = Orders[F];
    Order = allRows(Base);
    std::sort(Order.begin(), Order.end(), [Col](uint32_t A, uint32_t B) {
      float Va = Col[A];
      float Vb = Col[B];
      if (Va != Vb)
        return Va < Vb;
      return A < B;
    });
    // Materialize the sorted values aligned with the order, so enumeration
    // passes never gather through the row ids.
    std::vector<float> &Sorted = Values[F];
    Sorted.resize(Order.size());
    for (size_t I = 0, E = Order.size(); I < E; ++I)
      Sorted[I] = Col[Order[I]];
  }
}

const PrefixMaskTable &SplitContext::prefixMasks() const {
  std::call_once(MasksOnce, [this] { Masks.emplace(*this); });
  return *Masks;
}

PrefixMaskTable::PrefixMaskTable(const SplitContext &Ctx) : Ctx(&Ctx) {
  const Dataset &Base = Ctx.base();
  const unsigned NumFeatures = Base.numFeatures();
  const uint32_t NumRows = Base.numRows();
  MaskWords = (size_t(NumRows) + 63) / 64;
  auto IsReal = [&Base](unsigned F) {
    return Base.schema().FeatureKinds[F] == FeatureKind::Real;
  };

  // The masks a stride keeps: walking each Real feature's order, a value
  // boundary at least Stride rows past the last kept one (or the empty
  // prefix), so a lookup ORs in at most Stride - 1 rows. Fewer are kept as
  // the stride grows, so the smallest stride that fits F · M · 8 bytes
  // (what a full set of sorted orders and values takes) is found by
  // bisection. Stride MaskWords always fits: a Real feature then keeps
  // fewer than numRows() / MaskWords masks.
  auto ForEachKept = [&](unsigned F, uint32_t S, auto &&Keep) {
    const float *Vals = Ctx.sortedValues(F);
    for (uint32_t I = 1, Last = 0; I < NumRows; ++I)
      if (Vals[I - 1] != Vals[I] && I - Last >= S) {
        Keep(I);
        Last = I;
      }
  };
  auto KeptMasks = [&](uint32_t S) {
    size_t Kept = 0;
    for (unsigned F = 0; F < NumFeatures; ++F) {
      if (!IsReal(F))
        ++Kept;
      else
        ForEachKept(F, S, [&Kept](uint32_t) { ++Kept; });
    }
    return Kept;
  };
  const size_t MaxMasks = size_t(NumFeatures) * NumRows * 8 /
                          (std::max<size_t>(MaskWords, 1) * sizeof(uint64_t));
  uint32_t Lo = 1;
  uint32_t Hi = static_cast<uint32_t>(std::max<size_t>(MaskWords, 1));
  while (Lo < Hi) {
    const uint32_t Mid = Lo + (Hi - Lo) / 2;
    if (KeptMasks(Mid) <= MaxMasks)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  Stride = Lo;

  const size_t NumKept = KeptMasks(Stride);
  Masks.assign((2 + NumKept) * MaskWords, 0);
  MaskLengths.reserve(NumKept);
  FeatureMasks.reserve(NumFeatures + 1);
  for (uint32_t Row = 0; Row < NumRows; ++Row)
    Masks[MaskWords + Row / 64] |= uint64_t(1) << (Row % 64);
  std::vector<uint64_t> Prefix(MaskWords);
  MaskValues.reserve(NumKept);
  auto KeepPrefix = [&](uint32_t Length, float Value) {
    std::copy(Prefix.begin(), Prefix.end(),
              Masks.begin() + (2 + MaskLengths.size()) * MaskWords);
    MaskLengths.push_back(Length);
    MaskValues.push_back(Value);
  };
  for (unsigned F = 0; F < NumFeatures; ++F) {
    FeatureMasks.push_back(static_cast<uint32_t>(MaskLengths.size()));
    std::fill(Prefix.begin(), Prefix.end(), 0);
    if (!IsReal(F)) {
      const float *Col = Base.column(F);
      uint32_t Zeros = 0;
      for (size_t Word = 0; Word < MaskWords; ++Word) {
        const uint32_t First = static_cast<uint32_t>(Word * 64);
        const uint32_t Last = std::min(NumRows, First + 64);
        uint64_t Bits = 0;
        for (uint32_t Row = First; Row < Last; ++Row)
          Bits |= uint64_t(Col[Row] == 0.0f) << (Row - First);
        Prefix[Word] = Bits;
        Zeros += static_cast<uint32_t>(__builtin_popcountll(Bits));
      }
      KeepPrefix(Zeros, 0.0f);
      continue;
    }
    const RowIndexList &Order = Ctx.sortedOrder(F);
    uint32_t Next = 0;
    ForEachKept(F, Stride, [&](uint32_t Length) {
      for (; Next < Length; ++Next)
        Prefix[Order[Next] / 64] |= uint64_t(1) << (Order[Next] % 64);
      KeepPrefix(Length, Ctx.sortedValues(F)[Length - 1]);
    });
  }
  FeatureMasks.push_back(static_cast<uint32_t>(MaskLengths.size()));
}

PrefixMaskTable::Prefix PrefixMaskTable::prefix(unsigned Feature, double C,
                                                bool Strict,
                                                uint64_t *Scratch) const {
  const uint32_t NumRows = Ctx->base().numRows();
  auto In = [C, Strict](float V) {
    return Strict ? static_cast<double>(V) < C : static_cast<double>(V) <= C;
  };
  // The kept masks whose prefixes lie inside the answer: K of them.
  const size_t First = FeatureMasks[Feature];
  const size_t NumKept = FeatureMasks[Feature + 1] - First;
  const size_t K =
      std::partition_point(MaskValues.data() + First,
                           MaskValues.data() + First + NumKept, In) -
      (MaskValues.data() + First);
  const uint32_t From = K ? MaskLengths[First + K - 1] : 0;
  const uint64_t *Kept =
      K ? Masks.data() + (2 + First + K - 1) * MaskWords : Masks.data();
  uint32_t Length;
  if (Ctx->base().schema().FeatureKinds[Feature] != FeatureKind::Real) {
    // Values are 0 or 1, and the one kept mask holds the zero rows.
    Length = In(1.0f) ? NumRows : From;
  } else {
    // The answer ends before the next kept prefix's last value. At stride
    // 1 every boundary is kept, so the first value past From already
    // settles it unless every later value is in.
    const uint32_t To = K < NumKept ? MaskLengths[First + K] - 1 : NumRows;
    const float *Vals = Ctx->sortedValues(Feature);
    Length = From == To || !In(Vals[From])
                 ? From
                 : static_cast<uint32_t>(
                       std::partition_point(Vals + From, Vals + To, In) -
                       Vals);
  }
  if (Length == From)
    return {Length, Kept};
  if (Length == NumRows)
    return {Length, Masks.data() + MaskWords};
  assert(Length - From < Stride && "a kept mask within the stride");
  std::copy(Kept, Kept + MaskWords, Scratch);
  const RowIndexList &Order = Ctx->sortedOrder(Feature);
  for (uint32_t I = From; I < Length; ++I)
    Scratch[Order[I] / 64] |= uint64_t(1) << (Order[I] % 64);
  return {Length, Scratch};
}

SplitEnumerationPrepass::SplitEnumerationPrepass(const SplitContext &Ctx,
                                                 const RowIndexList &Rows)
    : Ctx(&Ctx), Rows(&Rows) {
  const Dataset &Base = Ctx.base();
  assert(isCanonicalRowSet(Rows) && "rows must be a canonical row set");
  unsigned NumClasses = Base.numClasses();
  unsigned NumFeatures = Base.numFeatures();

  // Membership mask over the base dataset, so the per-feature passes can
  // walk the cached global sorted orders.
  InRows.assign(Base.numRows(), 0);
  for (uint32_t Row : Rows)
    InRows[Row] = 1;

  // Boolean features: one pass per boolean column accumulates the class
  // counts of its `value == 0` side. The comparison result feeds the count
  // directly (no conditional increment), and each pass reads exactly one
  // column slice plus the label slice.
  bool HasBoolean = false;
  for (unsigned F = 0; F < NumFeatures; ++F)
    if (Base.schema().FeatureKinds[F] == FeatureKind::Boolean)
      HasBoolean = true;
  if (!HasBoolean)
    return;
  ZeroCounts.assign(static_cast<size_t>(NumFeatures) * NumClasses, 0);
  const uint32_t *Labels = Base.labels();
  for (unsigned F = 0; F < NumFeatures; ++F) {
    if (Base.schema().FeatureKinds[F] != FeatureKind::Boolean)
      continue;
    const float *Col = Base.column(F);
    uint32_t *Out = ZeroCounts.data() + static_cast<size_t>(F) * NumClasses;
    for (uint32_t Row : Rows)
      Out[Labels[Row]] += Col[Row] == 0.0f;
  }
}

std::optional<SplitPredicate> antidote::bestSplit(const SplitContext &Ctx,
                                                  const RowIndexList &Rows) {
  std::vector<uint32_t> Totals = classCounts(Ctx.base(), Rows);
  uint32_t Total = static_cast<uint32_t>(Rows.size());
  std::vector<uint32_t> NegScratch(Totals.size());
  std::optional<SplitPredicate> Best;
  double BestScore = 0.0;
  forEachCandidateSplit(
      Ctx, Rows, PredicateMode::ConcreteMidpoint,
      [&](const SplitPredicate &Pred, const std::vector<uint32_t> &PosCounts,
          uint32_t PosTotal) {
        for (size_t C = 0; C < Totals.size(); ++C)
          NegScratch[C] = Totals[C] - PosCounts[C];
        double Score =
            splitScore(PosCounts, PosTotal, NegScratch, Total - PosTotal);
        // Candidates arrive in ascending (feature, threshold) order, so a
        // strict improvement test yields the smallest tied predicate.
        if (!Best || Score < BestScore) {
          Best = Pred;
          BestScore = Score;
        }
      });
  return Best;
}

RowIndexList antidote::filterRows(const Dataset &Base,
                                  const RowIndexList &Rows,
                                  const SplitPredicate &Pred, bool Positive) {
  assert(!Pred.isSymbolic() && "concrete filter needs a concrete predicate");
  // Compare-and-compact over one column slice: a concrete predicate is
  // `value ≤ threshold` on a single feature, so the three-valued evaluate
  // collapses to one comparison. Always write the row id, advance the write
  // cursor by the comparison result — no data-dependent branch.
  const float *Col = Base.column(Pred.feature());
  const double Threshold = Pred.lo();
  RowIndexList Result(Rows.size());
  size_t N = 0;
  for (uint32_t Row : Rows) {
    Result[N] = Row;
    N += (static_cast<double>(Col[Row]) <= Threshold) == Positive;
  }
  Result.resize(N);
  return Result;
}
