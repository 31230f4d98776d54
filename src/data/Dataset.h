//===- data/Dataset.h - Training/test set substrate ------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable feature/label storage plus sorted row-index views.
///
/// A training set T ⊆ X × Y (paper §3.1) is represented as an immutable
/// `Dataset` (struct-of-arrays feature matrix + labels) and, everywhere else
/// in the system, as a *sorted vector of row indices* into such a base
/// dataset. Both the concrete learner's `filter` and the abstract domain's
/// `⟨T,n⟩` element refine training sets by dropping rows, so index views make
/// every refinement a cheap subsequence selection and make the set algebra
/// the abstract domain needs (|T1 \ T2|, unions, intersections) linear
/// merges.
///
/// Storage is one contiguous `float` column per feature (struct-of-arrays):
/// every hot kernel — candidate-split enumeration, predicate evaluation,
/// fingerprinting — walks a single feature across many rows, and a column
/// slice turns each of those walks into a unit-stride scan the compiler can
/// vectorize. The row-major accessor `row()` is kept as a compatibility shim
/// for per-row consumers (test query points, tree classification); it is
/// backed by a lazily materialized row-major mirror.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_DATA_DATASET_H
#define ANTIDOTE_DATA_DATASET_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace antidote {

/// The kind of values a feature column holds (paper §5 distinguishes the
/// Boolean MNIST-1-7-Binary predicates from real-valued features, which
/// require dynamic threshold selection).
enum class FeatureKind : uint8_t {
  Boolean, ///< Values restricted to {0, 1}; a single predicate per feature.
  Real,    ///< Arbitrary reals; thresholds are chosen from the data.
};

/// Column/label structure shared by every row of a dataset.
struct DatasetSchema {
  std::vector<FeatureKind> FeatureKinds;
  unsigned NumClasses = 0;
  std::vector<std::string> ClassNames; ///< Optional; size 0 or NumClasses.

  unsigned numFeatures() const {
    return static_cast<unsigned>(FeatureKinds.size());
  }

  /// Convenience: a schema whose features all share one kind.
  static DatasetSchema uniform(unsigned NumFeatures, FeatureKind Kind,
                               unsigned NumClasses);
};

/// A sorted-ascending set of row indices into some base `Dataset`.
using RowIndexList = std::vector<uint32_t>;

/// An immutable, struct-of-arrays labeled dataset.
///
/// Feature values are stored as `float`: the benchmark datasets are small
/// integers or 8-bit pixel intensities, and halving the footprint matters
/// for the 13,007 x 784 MNIST-like matrices. All arithmetic on values is
/// performed in `double`.
class Dataset {
public:
  /// An empty dataset with no features/classes; a placeholder until a real
  /// schema is assigned (e.g. registry/loader result structs).
  Dataset() = default;

  explicit Dataset(DatasetSchema Schema)
      : Schema(std::move(Schema)), Columns(this->Schema.numFeatures()) {}

  const DatasetSchema &schema() const { return Schema; }
  unsigned numFeatures() const { return Schema.numFeatures(); }
  unsigned numClasses() const { return Schema.NumClasses; }
  unsigned numRows() const { return static_cast<unsigned>(Labels.size()); }

  /// Contiguous slice of feature \p Feature across all rows (numRows()
  /// floats, unit stride). The kernels' primary view of the data.
  const float *column(unsigned Feature) const {
    assert(Feature < numFeatures() && "feature out of range");
    return Columns[Feature].data();
  }

  double value(unsigned Row, unsigned Feature) const {
    assert(Row < numRows() && Feature < numFeatures() && "index out of range");
    return Columns[Feature][Row];
  }

  unsigned label(unsigned Row) const {
    assert(Row < numRows() && "row out of range");
    return Labels[Row];
  }

  /// Contiguous slice of all numRows() labels.
  const uint32_t *labels() const { return Labels.data(); }

  /// Pointer to the feature vector of \p Row (numFeatures() floats).
  ///
  /// Compatibility shim over the column storage: the first call materializes
  /// a row-major mirror of the whole matrix (so callers that stash the
  /// returned pointer — e.g. batched query points — stay valid for the
  /// dataset's lifetime). The first call must not race with other `row()`
  /// calls or with mutation; in practice every caller is a single-threaded
  /// setup path over a *test* set, so training matrices never pay for the
  /// mirror.
  const float *row(unsigned Row) const {
    assert(Row < numRows() && "row out of range");
    if (RowMirror.size() != static_cast<size_t>(numRows()) * numFeatures())
      materializeRowMirror();
    return RowMirror.data() + static_cast<size_t>(Row) * numFeatures();
  }

  void reserveRows(unsigned N);

  /// Appends a row; \p Features must hold numFeatures() values and
  /// \p Label must be < numClasses(). Boolean columns must hold 0 or 1.
  void addRow(const std::vector<float> &Features, unsigned Label);
  void addRow(const float *Features, unsigned Label);

  /// Rewrites the label of \p Row. The one sanctioned in-place mutation of
  /// existing rows: the label-flip enumerator materializes a row subset once
  /// and then patches labels per flip set instead of rebuilding the matrix.
  void setLabel(unsigned Row, unsigned Label) {
    assert(Row < numRows() && "row out of range");
    assert(Label < numClasses() && "label out of range");
    Labels[Row] = Label;
  }

  /// A new dataset holding the rows of \p Base selected by \p Rows (in
  /// order), copied column-by-column: one bulk copy per feature instead of a
  /// per-row × per-feature gather loop.
  static Dataset gatherRows(const Dataset &Base, const RowIndexList &Rows);

  /// Bytes of feature/label storage (for the memory reports). Deliberately
  /// excludes the lazy row-major mirror, which only test sets materialize.
  uint64_t storageBytes() const {
    return static_cast<uint64_t>(numRows()) * numFeatures() * sizeof(float) +
           Labels.size() * sizeof(uint32_t);
  }

private:
  void materializeRowMirror() const;

  DatasetSchema Schema;
  /// One contiguous value array per feature; Columns[F][Row] pairs with
  /// Labels[Row].
  std::vector<std::vector<float>> Columns;
  std::vector<uint32_t> Labels;
  /// Lazy row-major mirror backing the `row()` shim; see `row()`.
  mutable std::vector<float> RowMirror;
};

/// Returns [0, Base.numRows()) as a view over the whole dataset.
RowIndexList allRows(const Dataset &Base);

/// Per-class row counts of the view (the `c_i` of paper §4.4).
std::vector<uint32_t> classCounts(const Dataset &Base,
                                  const RowIndexList &Rows);

/// True iff \p Rows is sorted ascending with no duplicates.
bool isCanonicalRowSet(const RowIndexList &Rows);

/// |A \ B| for sorted row sets.
uint32_t rowSetDifferenceSize(const RowIndexList &A, const RowIndexList &B);

/// A ∪ B for sorted row sets (sorted result).
RowIndexList rowSetUnion(const RowIndexList &A, const RowIndexList &B);

/// A ∩ B for sorted row sets (sorted result).
RowIndexList rowSetIntersection(const RowIndexList &A, const RowIndexList &B);

/// True iff A ⊆ B for sorted row sets.
bool rowSetIncludes(const RowIndexList &A, const RowIndexList &B);

} // namespace antidote

#endif // ANTIDOTE_DATA_DATASET_H
