//===- data/Dataset.cpp - Training/test set substrate ----------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "data/Dataset.h"

#include <algorithm>
#include <numeric>

using namespace antidote;

DatasetSchema DatasetSchema::uniform(unsigned NumFeatures, FeatureKind Kind,
                                     unsigned NumClasses) {
  DatasetSchema Schema;
  Schema.FeatureKinds.assign(NumFeatures, Kind);
  Schema.NumClasses = NumClasses;
  return Schema;
}

void Dataset::reserveRows(unsigned N) {
  for (std::vector<float> &Column : Columns)
    Column.reserve(N);
  Labels.reserve(N);
}

void Dataset::addRow(const std::vector<float> &Features, unsigned Label) {
  assert(Features.size() == numFeatures() && "feature count mismatch");
  addRow(Features.data(), Label);
}

void Dataset::addRow(const float *Features, unsigned Label) {
  assert(Label < numClasses() && "label out of range");
#ifndef NDEBUG
  for (unsigned F = 0; F < numFeatures(); ++F)
    if (Schema.FeatureKinds[F] == FeatureKind::Boolean)
      assert((Features[F] == 0.0f || Features[F] == 1.0f) &&
             "boolean feature must be 0 or 1");
#endif
  for (unsigned F = 0, E = numFeatures(); F < E; ++F)
    Columns[F].push_back(Features[F]);
  Labels.push_back(Label);
  RowMirror.clear();
}

void Dataset::materializeRowMirror() const {
  const size_t Rows = numRows(), Features = numFeatures();
  RowMirror.resize(Rows * Features);
  for (size_t F = 0; F < Features; ++F) {
    const float *Column = Columns[F].data();
    float *Out = RowMirror.data() + F;
    for (size_t Row = 0; Row < Rows; ++Row)
      Out[Row * Features] = Column[Row];
  }
}

Dataset Dataset::gatherRows(const Dataset &Base, const RowIndexList &Rows) {
  Dataset Out(Base.schema());
  const size_t Count = Rows.size();
  // Empty selection: done. (Also keeps the bulk copies below away from the
  // null data() an empty base column returns — copying zero bytes from null
  // is formally undefined and trips GCC's -Wnonnull.)
  if (Count == 0)
    return Out;
  // A canonical (sorted, duplicate-free) view of every row is the identity
  // selection, so the per-column gather degenerates to a bulk copy.
  const bool FullRange =
      Count == Base.numRows() && isCanonicalRowSet(Rows);
  for (unsigned F = 0, E = Base.numFeatures(); F < E; ++F) {
    std::vector<float> &Column = Out.Columns[F];
    const float *Src = Base.column(F);
    if (FullRange) {
      // The common flip-enumerator case: the view covers every base row in
      // order, so the gather degenerates to one bulk copy per feature.
      Column.assign(Src, Src + Count);
      continue;
    }
    Column.resize(Count);
    float *Dst = Column.data();
    for (size_t I = 0; I < Count; ++I)
      Dst[I] = Src[Rows[I]];
  }
  Out.Labels.resize(Count);
  const uint32_t *SrcLabels = Base.labels();
  if (FullRange) {
    std::copy(SrcLabels, SrcLabels + Count, Out.Labels.begin());
  } else {
    for (size_t I = 0; I < Count; ++I)
      Out.Labels[I] = SrcLabels[Rows[I]];
  }
  return Out;
}

RowIndexList antidote::allRows(const Dataset &Base) {
  RowIndexList Rows(Base.numRows());
  std::iota(Rows.begin(), Rows.end(), 0);
  return Rows;
}

std::vector<uint32_t> antidote::classCounts(const Dataset &Base,
                                            const RowIndexList &Rows) {
  std::vector<uint32_t> Counts(Base.numClasses(), 0);
  const uint32_t *Labels = Base.labels();
  for (uint32_t Row : Rows)
    ++Counts[Labels[Row]];
  return Counts;
}

bool antidote::isCanonicalRowSet(const RowIndexList &Rows) {
  for (size_t I = 1, E = Rows.size(); I < E; ++I)
    if (Rows[I - 1] >= Rows[I])
      return false;
  return true;
}

uint32_t antidote::rowSetDifferenceSize(const RowIndexList &A,
                                        const RowIndexList &B) {
  assert(isCanonicalRowSet(A) && isCanonicalRowSet(B) && "unsorted row sets");
  uint32_t Count = 0;
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J]) {
      ++Count;
      ++I;
    } else if (A[I] > B[J]) {
      ++J;
    } else {
      ++I;
      ++J;
    }
  }
  Count += static_cast<uint32_t>(A.size() - I);
  return Count;
}

RowIndexList antidote::rowSetUnion(const RowIndexList &A,
                                   const RowIndexList &B) {
  assert(isCanonicalRowSet(A) && isCanonicalRowSet(B) && "unsorted row sets");
  RowIndexList Result;
  Result.reserve(A.size() + B.size());
  std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                 std::back_inserter(Result));
  return Result;
}

RowIndexList antidote::rowSetIntersection(const RowIndexList &A,
                                          const RowIndexList &B) {
  assert(isCanonicalRowSet(A) && isCanonicalRowSet(B) && "unsorted row sets");
  RowIndexList Result;
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Result));
  return Result;
}

bool antidote::rowSetIncludes(const RowIndexList &A, const RowIndexList &B) {
  assert(isCanonicalRowSet(A) && isCanonicalRowSet(B) && "unsorted row sets");
  return std::includes(B.begin(), B.end(), A.begin(), A.end());
}
