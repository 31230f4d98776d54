//===- antidote/Verifier.cpp - Poisoning-robustness verifier ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "antidote/Verifier.h"

#include "serving/CertificateStore.h"

#include <cstdio>

using namespace antidote;

const char *antidote::verdictKindName(VerdictKind Kind) {
  switch (Kind) {
  case VerdictKind::Robust:
    return "robust";
  case VerdictKind::Unknown:
    return "unknown";
  case VerdictKind::Timeout:
    return "timeout";
  case VerdictKind::ResourceLimit:
    return "resource-limit";
  case VerdictKind::Cancelled:
    return "cancelled";
  }
  assert(false && "unknown verdict kind");
  return "?";
}

std::string Certificate::summary() const {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "%s (n=%u, depth=%u, %s, %s): prediction %u, %zu terminals, "
                "%zu peak disjuncts, %.3fs",
                verdictKindName(Kind), PoisoningBudget, Depth,
                domainKindName(Domain), threatModelName(Threat),
                ConcretePrediction, NumTerminals, PeakDisjuncts, Seconds);
  return Buf;
}

unsigned Verifier::predict(const float *X, unsigned Depth) const {
  return trace(X, Depth).PredictedClass;
}

TraceResult Verifier::trace(const float *X, unsigned Depth) const {
  return runDTrace(Ctx, AllTrainRows, X, Depth);
}

Certificate Verifier::verify(const float *X, uint32_t PoisoningBudget,
                             const VerifierConfig &Config,
                             ThreadPool *Pool) const {
  if (Config.Cache) {
    Certificate Cached;
    if (Config.Cache->lookup(Fingerprint, X, Train->numFeatures(),
                             PoisoningBudget, Config, Cached))
      return Cached;
  }

  Certificate Cert;
  Cert.PoisoningBudget = PoisoningBudget;
  Cert.CertifiedRadius = PoisoningBudget;
  Cert.Depth = Config.Depth;
  Cert.Domain = Config.Domain;
  Cert.Threat = Config.Threat;
  Cert.ConcretePrediction = predict(X, Config.Depth);

  AbstractLearnerConfig LearnerConfig;
  LearnerConfig.Depth = Config.Depth;
  LearnerConfig.Domain = Config.Domain;
  LearnerConfig.Threat = Config.Threat;
  LearnerConfig.Cprob = Config.Cprob;
  LearnerConfig.Gini = Config.Gini;
  LearnerConfig.DisjunctCap = Config.DisjunctCap;
  LearnerConfig.Limits = Config.Limits;
  LearnerConfig.Cancel = Config.Cancel;
  LearnerConfig.FrontierPool = Pool;

  AbstractDataset Initial = AbstractDataset::entire(*Train, PoisoningBudget);
  AbstractLearnerResult Run = runAbstractDTrace(Ctx, Initial, X,
                                                LearnerConfig);

  Cert.NumTerminals = Run.NumTerminals;
  Cert.PeakDisjuncts = Run.PeakDisjuncts;
  Cert.PeakStateBytes = Run.PeakStateBytes;
  Cert.BestSplitCalls = Run.BestSplitCalls;
  Cert.Seconds = Run.Seconds;
  Cert.DominatingClass = Run.DominatingClass;

  switch (Run.Status) {
  case LearnerStatus::Timeout:
    Cert.Kind = VerdictKind::Timeout;
    break;
  case LearnerStatus::ResourceLimit:
    Cert.Kind = VerdictKind::ResourceLimit;
    break;
  case LearnerStatus::Cancelled:
    Cert.Kind = VerdictKind::Cancelled;
    break;
  case LearnerStatus::Completed:
    if (!Run.DominatingClass) {
      Cert.Kind = VerdictKind::Unknown;
      break;
    }
    // The unpoisoned set T is itself in ∆n(T), so a dominating class must
    // be the concrete prediction.
    assert(*Run.DominatingClass == Cert.ConcretePrediction &&
           "dominating class contradicts the concrete learner");
    Cert.Kind = VerdictKind::Robust;
    break;
  }

  if (Config.Cache && isDeterministicVerdict(Cert.Kind))
    Config.Cache->store(Fingerprint, X, Train->numFeatures(),
                        PoisoningBudget, Config, Cert);
  return Cert;
}

std::vector<Certificate>
Verifier::verifyBatch(const std::vector<const float *> &Inputs,
                      uint32_t PoisoningBudget, const VerifierConfig &Config,
                      ThreadPool *Pool) const {
  std::vector<Certificate> Certs(Inputs.size());
  parallelFor(Pool, Inputs.size(), [&](size_t I) {
    Certs[I] = verify(Inputs[I], PoisoningBudget, Config);
  });
  return Certs;
}
