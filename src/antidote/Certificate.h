//===- antidote/Certificate.h - Robustness verdicts -------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result object a verification run hands back to clients.
///
/// A `Robust` verdict is a proof (by Theorem 4.11 + Corollary 4.12) that
/// *no* attacker who perturbed the training set within the certificate's
/// threat model — removed up to `PoisoningBudget` rows, or relabeled up to
/// that many (`Threat`) — could have changed the model's prediction on the
/// queried input. Any other verdict is inconclusive — the analysis is
/// sound but incomplete (§2).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ANTIDOTE_CERTIFICATE_H
#define ANTIDOTE_ANTIDOTE_CERTIFICATE_H

#include "abstract/AbstractDTrace.h"

#include <cstdint>
#include <optional>
#include <string>

namespace antidote {

/// Outcome of a verification attempt.
enum class VerdictKind : uint8_t {
  Robust,        ///< Proven: every T' ∈ ∆n(T) yields the same prediction.
  Unknown,       ///< The overapproximation could not prove robustness.
  Timeout,       ///< Wall-clock budget exhausted.
  ResourceLimit, ///< Disjunct/memory cap exceeded (the paper's OOM case).
  Cancelled,     ///< Stopped early via a shared CancellationToken.
};

const char *verdictKindName(VerdictKind Kind);

/// The one whitelist of verdicts a store may hold. Robust/Unknown are
/// pure functions of (training set, x, n, config); ResourceLimit is too
/// (disjunct and state-byte accounting is bit-identical across thread
/// counts). Timeout depends on wall clock and Cancelled on an external
/// controller, so storing either could serve a verdict a re-run would
/// contradict.
inline bool isDeterministicVerdict(VerdictKind Kind) {
  return Kind == VerdictKind::Robust || Kind == VerdictKind::Unknown ||
         Kind == VerdictKind::ResourceLimit;
}

/// The (attempted) proof of poisoning robustness for one input.
struct Certificate {
  VerdictKind Kind = VerdictKind::Unknown;

  /// The n of ∆n(T) this certificate speaks about — the budget of the
  /// *query* it answers.
  uint32_t PoisoningBudget = 0;

  /// The radius the underlying proof actually ran at. A fresh
  /// verification sets this equal to `PoisoningBudget`; a range-served
  /// answer keeps the stored proof's radius and rewrites only
  /// `PoisoningBudget` to the queried n. The two differing is how
  /// a client (or test) can tell a served answer rests on a wider
  /// certificate: a Robust verdict is backed by a proof at
  /// `CertifiedRadius >= PoisoningBudget` (monotonicity: ∆n ⊆ ∆N for
  /// n <= N), an Unknown by a failed attempt at
  /// `CertifiedRadius <= PoisoningBudget`.
  uint32_t CertifiedRadius = 0;

  /// Learner parameters the proof is relative to.
  unsigned Depth = 0;
  AbstractDomainKind Domain = AbstractDomainKind::Box;

  /// Which perturbation set ∆n(T) the proof quantifies over
  /// (abstract/ThreatModel.h): row removal or label flips. A certificate
  /// only ever answers queries under its own threat model.
  ThreatModelKind Threat = ThreatModelKind::Removal;

  /// Prediction of the unpoisoned learner L(T)(x).
  unsigned ConcretePrediction = 0;

  /// The Corollary 4.12 dominating class; equals ConcretePrediction
  /// whenever the verdict is Robust.
  std::optional<unsigned> DominatingClass;

  // Diagnostics / cost metrics (the Figure 7-11 plots report these).
  size_t NumTerminals = 0;
  size_t PeakDisjuncts = 0;
  uint64_t PeakStateBytes = 0;
  unsigned BestSplitCalls = 0;
  double Seconds = 0.0;

  bool isRobust() const { return Kind == VerdictKind::Robust; }

  /// One-line human-readable summary.
  std::string summary() const;
};

} // namespace antidote

#endif // ANTIDOTE_ANTIDOTE_CERTIFICATE_H
