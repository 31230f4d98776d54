//===- data/Synthetic.h - Synthetic UCI-like dataset generators -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic synthetic stand-ins for the three UCI datasets of §6.1.
///
/// The build has no network access, so the exact UCI files cannot be
/// fetched; instead (docs/ARCHITECTURE.md, "Deviations from the paper") we
/// generate class-conditional samples matching each dataset's published
/// shape (row counts, feature counts/kinds, class balance, and the margin
/// structure that drives decision-tree behaviour).
/// Generators are pure functions of their seed.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_DATA_SYNTHETIC_H
#define ANTIDOTE_DATA_SYNTHETIC_H

#include "data/Dataset.h"

#include <cstdint>

namespace antidote {

/// A dataset split into the paper's 80%/20% train/test partition.
struct TrainTestSplit {
  Dataset Train;
  Dataset Test;
};

/// Default seed shared by every generator so the whole benchmark suite is
/// reproducible end to end.
inline constexpr uint64_t DefaultDataSeed = 0xA47190DE2020ULL;

/// Iris-like: 150 rows (120 train / 30 test), 4 real features, 3 classes.
///
/// Cluster means/stddevs follow the published per-class statistics of the
/// real Iris data (values rounded to one decimal, as in the original). The
/// train split holds exactly 40 rows per class so that the depth-1 tree's
/// non-Setosa leaf is an exact two-class tie — the instability quirk the
/// paper calls out in footnote 10.
TrainTestSplit makeIrisLike(uint64_t Seed = DefaultDataSeed);

/// Mammographic-Masses-like: 830 rows (664 / 166), 5 ordinal-integer
/// features (BI-RADS, age, shape, margin, density), 2 classes.
TrainTestSplit makeMammographicLike(uint64_t Seed = DefaultDataSeed);

/// WDBC-like: 569 rows (456 / 113), 30 real features (10 base measurements
/// in mean/se/worst triples, with the original's internal correlations),
/// 2 classes with the original's 357/212 benign/malignant balance.
TrainTestSplit makeWdbcLike(uint64_t Seed = DefaultDataSeed);

} // namespace antidote

#endif // ANTIDOTE_DATA_SYNTHETIC_H
