//===- antidote/Verifier.h - Poisoning-robustness verifier ------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's main entry point: given a training set once, verify
/// n-poisoning robustness (Definition 3.1 with the ∆n model of §4.1) for
/// any number of inputs.
///
/// Typical use (see examples/quickstart.cpp):
/// \code
///   Verifier V(Train);
///   VerifierConfig Config;
///   Config.Depth = 2;
///   Config.Domain = AbstractDomainKind::Disjuncts;
///   Certificate Cert = V.verify(Test.row(0), /*PoisoningBudget=*/8, Config);
///   if (Cert.isRobust()) { ... }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ANTIDOTE_VERIFIER_H
#define ANTIDOTE_ANTIDOTE_VERIFIER_H

#include "antidote/Certificate.h"
#include "concrete/DTrace.h"
#include "data/Fingerprint.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"

namespace antidote {

/// The caching hook `Verifier::verify` talks to. The antidote layer only
/// names the seam; the contract and every implementation live above it
/// in serving/CertificateStore.h.
class CertificateStore;

/// Per-query verification parameters.
struct VerifierConfig {
  unsigned Depth = 2;
  AbstractDomainKind Domain = AbstractDomainKind::Box;

  /// The poisoning threat model the budget n quantifies over
  /// (abstract/ThreatModel.h). Flip queries require the Disjuncts domain
  /// (`threatModel(Threat).supportsDomain`); front ends enforce this
  /// before building a config.
  ThreatModelKind Threat = ThreatModelKind::Removal;

  CprobTransformerKind Cprob = CprobTransformerKind::Optimal;
  GiniLiftingKind Gini = GiniLiftingKind::ExactTerm;
  size_t DisjunctCap = 64; ///< DisjunctsCapped only (precision knob).

  /// Per-query resource budget (timeout / disjunct cap / state bytes);
  /// support/Budget.h is the single home of these knobs.
  ResourceLimits Limits;

  /// Optional shared token; cancelling it stops in-flight queries
  /// cooperatively (they report VerdictKind::Cancelled, or the token's
  /// reason) — the lever `verifyBatch` callers use to abandon a batch.
  const CancellationToken *Cancel = nullptr;

  /// Optional certificate store consulted before verifying and updated
  /// after (serving traffic mostly repeats queries, so a warm cache
  /// short-circuits them to the stored certificate). Implementations
  /// must be safe to call from concurrent `verifyBatch` workers; the
  /// serving layer's fingerprint-keyed `CertCache` is the production
  /// one. Null (default) disables caching entirely.
  CertificateStore *Cache = nullptr;
};

/// Verifies data-poisoning robustness of decision-tree learning on a fixed
/// training set. Holds the per-dataset acceleration structures, so
/// constructing one Verifier and reusing it across queries is the intended
/// pattern.
///
/// Thread-safety: a constructed Verifier is immutable — `predict`, `trace`,
/// `verify`, and `verifyBatch` only read the dataset, the SplitContext's
/// cached sort orders, and per-call state, so any number of threads may
/// issue queries against one instance concurrently.
class Verifier {
public:
  explicit Verifier(const Dataset &Train)
      : Train(&Train), Ctx(Train), AllTrainRows(allRows(Train)),
        Fingerprint(fingerprintDataset(Train)) {}

  const Dataset &trainingSet() const { return *Train; }
  const SplitContext &context() const { return Ctx; }

  /// Content fingerprint of the training set, computed once at
  /// construction — the dataset component of every cache key this
  /// verifier's queries use (see data/Fingerprint.h).
  const DatasetFingerprint &fingerprint() const { return Fingerprint; }

  /// L(T)(x): the unpoisoned learner's prediction at depth \p Depth.
  unsigned predict(const float *X, unsigned Depth) const;

  /// Full concrete trace (exposes `cprob`, the trace σ, and the leaf).
  TraceResult trace(const float *X, unsigned Depth) const;

  /// Attempts to prove that x's prediction is invariant across every
  /// training set in ∆n(T), n = \p PoisoningBudget. \p Pool (plus the
  /// calling thread) spreads this one query's DTrace# frontier; a
  /// null/empty pool runs it serially. The certificate is bit-identical
  /// for every pool size (timings aside).
  Certificate verify(const float *X, uint32_t PoisoningBudget,
                     const VerifierConfig &Config,
                     ThreadPool *Pool = nullptr) const;

  /// Verifies every input of \p Inputs under the same budget and config,
  /// fanning the independent queries out across \p Pool (plus the calling
  /// thread); each query's frontier runs serially on the executor that
  /// took it, so fan-outs never nest. Certificates come back indexed like
  /// Inputs, and each query's verdict is independent of scheduling, so
  /// results are deterministic and thread-count-independent (timings
  /// aside). A null/empty pool runs serially.
  std::vector<Certificate> verifyBatch(const std::vector<const float *> &Inputs,
                                       uint32_t PoisoningBudget,
                                       const VerifierConfig &Config,
                                       ThreadPool *Pool = nullptr) const;

private:
  const Dataset *Train;
  SplitContext Ctx;
  RowIndexList AllTrainRows;
  DatasetFingerprint Fingerprint;
};

} // namespace antidote

#endif // ANTIDOTE_ANTIDOTE_VERIFIER_H
