//===- abstract/AbstractDataset.cpp - The <T,n> training-set domain ----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDataset.h"

#include "concrete/Gini.h"

#include <algorithm>
#include <cstdio>

using namespace antidote;

AbstractDataset::AbstractDataset(const Dataset &Base, RowIndexList Rows,
                                 uint32_t Budget)
    : Base(&Base), Rows(std::move(Rows)),
      Budget(std::min<uint32_t>(Budget,
                                static_cast<uint32_t>(this->Rows.size()))) {
  assert(isCanonicalRowSet(this->Rows) && "rows must be sorted and unique");
  Counts = classCounts(Base, this->Rows);
}

AbstractDataset::AbstractDataset(const Dataset &Base, RowIndexList Rows,
                                 uint32_t Budget, std::vector<uint32_t> Counts)
    : Base(&Base), Rows(std::move(Rows)),
      Budget(std::min<uint32_t>(Budget,
                                static_cast<uint32_t>(this->Rows.size()))),
      Counts(std::move(Counts)) {
  assert(isCanonicalRowSet(this->Rows) && "rows must be sorted and unique");
  assert(this->Counts == classCounts(Base, this->Rows) &&
         this->Counts.capacity() == Base.numClasses() &&
         "counts must be the rows' exact per-class counts");
}

AbstractDataset AbstractDataset::entire(const Dataset &Base,
                                        uint32_t Budget) {
  return AbstractDataset(Base, allRows(Base), Budget);
}

bool AbstractDataset::isSingleClass() const {
  return isPure(Counts);
}

bool AbstractDataset::leq(const AbstractDataset &Other) const {
  assert(Base == Other.Base && "elements over different base datasets");
  if (!rowSetIncludes(Rows, Other.Rows))
    return false;
  uint32_t Extra = static_cast<uint32_t>(Other.Rows.size() - Rows.size());
  return Budget + Extra <= Other.Budget;
}

AbstractDataset AbstractDataset::join(const AbstractDataset &A,
                                      const AbstractDataset &B) {
  assert(A.Base == B.Base && "joining elements over different base datasets");
  RowIndexList Union = rowSetUnion(A.Rows, B.Rows);
  // |T1 \ T2| = |T1 ∪ T2| − |T2| for the sorted unions we just built.
  uint32_t AOnly = static_cast<uint32_t>(Union.size() - B.Rows.size());
  uint32_t BOnly = static_cast<uint32_t>(Union.size() - A.Rows.size());
  uint32_t NewBudget = std::max(AOnly + B.Budget, BOnly + A.Budget);
  return AbstractDataset(*A.Base, std::move(Union), NewBudget);
}

std::optional<AbstractDataset>
AbstractDataset::meet(const AbstractDataset &A, const AbstractDataset &B) {
  assert(A.Base == B.Base && "meeting elements over different base datasets");
  RowIndexList Inter = rowSetIntersection(A.Rows, B.Rows);
  uint32_t AOnly = static_cast<uint32_t>(A.Rows.size() - Inter.size());
  uint32_t BOnly = static_cast<uint32_t>(B.Rows.size() - Inter.size());
  if (AOnly > A.Budget || BOnly > B.Budget)
    return std::nullopt;
  uint32_t NewBudget = std::min(A.Budget - AOnly, B.Budget - BOnly);
  return AbstractDataset(*A.Base, std::move(Inter), NewBudget);
}

bool AbstractDataset::concretizationContains(
    const RowIndexList &Candidate) const {
  assert(isCanonicalRowSet(Candidate) && "candidate must be canonical");
  if (!rowSetIncludes(Candidate, Rows))
    return false;
  return Rows.size() - Candidate.size() <= Budget;
}

AbstractDataset AbstractDataset::restrict(const SplitPredicate &Pred,
                                          bool Positive) const {
  // Partition the rows into definitely / possibly on the requested side.
  // For a concrete predicate "possibly" and "definitely" coincide and this
  // is exactly equation (1); for a symbolic ρ the Maybe rows are kept but
  // charged to the budget, which is the closed form of the Appendix B.1
  // join ⟨T,n⟩↓#φa ⊔ ⟨T,n⟩↓#φb.
  //
  // Kernel shape: the three-valued evaluation over one feature unfolds into
  // two comparisons against the predicate's column slice (True ⇔ V ≤ lo,
  // Maybe ⇔ lo < V < hi), and the kept rows compact through an always-write
  // cursor into per-thread scratch — no data-dependent branch in either
  // loop. The same pass adds each kept row to its class's count, so the
  // child never rescans its rows for `counts()`. The copied-out row vector
  // is at exact capacity, which the stateBytes() memory accounting depends
  // on.
  thread_local std::vector<uint32_t> Scratch;
  Scratch.resize(Rows.size());
  std::vector<uint32_t> KeptCounts(Base->numClasses(), 0);
  uint32_t *Out = Scratch.data();
  uint32_t *Cnt = KeptCounts.data();
  const float *Col = Base->column(Pred.feature());
  const uint32_t *Labels = Base->labels();
  const double PredLo = Pred.lo();
  const double PredHi = Pred.hi();
  size_t N = 0;
  uint32_t Definite = 0;
  if (Positive) {
    for (uint32_t Row : Rows) {
      const double V = Col[Row];
      const bool LeLo = V <= PredLo;
      const bool LtHi = V < PredHi;
      Out[N] = Row;
      N += LeLo | LtHi;
      Cnt[Labels[Row]] += LeLo | LtHi;
      Definite += LeLo;
    }
  } else {
    for (uint32_t Row : Rows) {
      const double V = Col[Row];
      const bool LeLo = V <= PredLo;
      const bool LtHi = V < PredHi;
      Out[N] = Row;
      N += !LeLo;
      Cnt[Labels[Row]] += !LeLo;
      Definite += !(LeLo | LtHi);
    }
  }
  return AbstractDataset(
      *Base, RowIndexList(Out, Out + N),
      restrictBudget(Budget, static_cast<uint32_t>(N), Definite),
      std::move(KeptCounts));
}

AbstractDataset AbstractDataset::fromBits(const Dataset &Base,
                                          const uint64_t *Bits, uint32_t Size,
                                          uint32_t Budget,
                                          const uint32_t *Counts) {
  RowIndexList Rows(Size);
  uint32_t *Out = Rows.data();
  for (size_t Word = 0, Words = (size_t(Base.numRows()) + 63) / 64;
       Word < Words; ++Word)
    for (uint64_t B = Bits[Word]; B; B &= B - 1)
      *Out++ = static_cast<uint32_t>(Word * 64 + __builtin_ctzll(B));
  assert(Out == Rows.data() + Size && "Size must be the bits set");
  return AbstractDataset(
      Base, std::move(Rows), Budget,
      std::vector<uint32_t>(Counts, Counts + Base.numClasses()));
}

std::optional<AbstractDataset>
AbstractDataset::restrictToPureClass(unsigned Class) const {
  assert(Class < Base->numClasses() && "class out of range");
  uint32_t Keep = Counts[Class];
  uint32_t Drop = size() - Keep;
  if (Drop > Budget)
    return std::nullopt;
  const uint32_t *Labels = Base->labels();
  RowIndexList Pure;
  Pure.reserve(Keep);
  for (uint32_t Row : Rows)
    if (Labels[Row] == Class)
      Pure.push_back(Row);
  std::vector<uint32_t> PureCounts(Base->numClasses(), 0);
  PureCounts[Class] = Keep;
  return AbstractDataset(*Base, std::move(Pure), Budget - Drop,
                         std::move(PureCounts));
}

std::string AbstractDataset::str() const {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "<|T|=%u, n=%u>", size(), Budget);
  return Buf;
}
