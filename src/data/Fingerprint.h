//===- data/Fingerprint.h - Stable dataset content hashes ------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable 128-bit content fingerprint over a `Dataset` — the key that
/// lets a certificate outlive the verification run that produced it.
///
/// A `Certificate` is a statement about one *exact* training set: change
/// any feature value, any label, any column's `FeatureKind`, the class
/// count, or even the row order (DTrace's tie-breaking is row-order
/// dependent), and the proof no longer applies. The serving layer's
/// `CertCache` therefore keys every entry on this fingerprint, so a cache
/// shared across datasets — or consulted after a dataset was rebuilt with
/// one row changed — can never serve a stale proof.
///
/// Properties the serving layer relies on:
///  - *Deterministic and process-independent*: only dataset content is
///    hashed (float bit patterns, labels, schema), never pointers or
///    iteration-order-dependent state, so two processes loading the same
///    CSV compute the same fingerprint.
///  - *Sensitive to every certificate-relevant mutation*: rows, labels,
///    row order, feature kinds, class count, and class names all feed the
///    hash (tests/FingerprintTests.cpp enforces this per mutation kind).
///  - 128 bits: wide enough that accidental collisions between the
///    handful of datasets a serving process ever sees are not a realistic
///    failure mode (this is an integrity aid, not a cryptographic MAC —
///    a malicious dataset author is outside the threat model; the
///    attacker of the paper poisons *rows*, not the cache).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_DATA_FINGERPRINT_H
#define ANTIDOTE_DATA_FINGERPRINT_H

#include "data/Dataset.h"

#include <cstdint>
#include <string>

namespace antidote {

/// A 128-bit content hash of one `Dataset`.
struct DatasetFingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const DatasetFingerprint &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const DatasetFingerprint &O) const { return !(*this == O); }

  /// 32 lowercase hex digits (for logs and cache-stat dumps).
  std::string hex() const;
};

/// Hashes \p Data's full content: schema (feature kinds, class count,
/// class names), then every row's feature bit patterns and label, in row
/// order. O(rows x features); a `Verifier` computes it once per training
/// set at construction.
DatasetFingerprint fingerprintDataset(const Dataset &Data);

} // namespace antidote

#endif // ANTIDOTE_DATA_FINGERPRINT_H
