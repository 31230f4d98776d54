//===- perfbench/src/TimingStore.cpp - Store-boundary spans ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "TimingStore.h"

#include "Inputs.h"
#include "Stats.h"

#include <algorithm>

using namespace antidote;
using namespace perfbench;

namespace {
/// The span this thread's last recorded lookup opened, so the `store`
/// that `Verifier::verify` issues after a miss lands in the same span.
/// SIZE_MAX = none open.
thread_local size_t OpenSpan = SIZE_MAX;
} // namespace

TimingStore::TimingStore(CertificateStore *Inner, size_t Capacity)
    : Inner(Inner), Buffer(Capacity) {}

std::vector<StoreSpan> TimingStore::spans() const {
  size_t Count = std::min(Next.load(), Buffer.size());
  return std::vector<StoreSpan>(Buffer.begin(), Buffer.begin() + Count);
}

void TimingStore::reset() {
  Next.store(0);
  Dropped.store(0);
}

bool TimingStore::lookup(const DatasetFingerprint &Data, const float *X,
                         unsigned NumFeatures, uint32_t PoisoningBudget,
                         const VerifierConfig &Config, Certificate &Out) {
  if (!Enabled.load(std::memory_order_acquire))
    return Inner &&
           Inner->lookup(Data, X, NumFeatures, PoisoningBudget, Config, Out);
  int64_t In = nowNs();
  bool Hit = Inner &&
             Inner->lookup(Data, X, NumFeatures, PoisoningBudget, Config, Out);
  int64_t Exit = nowNs();
  size_t Index = Next.fetch_add(1, std::memory_order_relaxed);
  if (Index >= Buffer.size()) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    OpenSpan = SIZE_MAX;
    return Hit;
  }
  StoreSpan &S = Buffer[Index];
  S = StoreSpan();
  S.Key = queryKey(X, NumFeatures, PoisoningBudget);
  S.LookupInNs = In;
  S.LookupOutNs = Exit;
  S.Outcome = !Hit ? LookupOutcome::Miss
              : Out.CertifiedRadius != PoisoningBudget ? LookupOutcome::RangeHit
                                                       : LookupOutcome::Hit;
  S.Depth = static_cast<uint8_t>(Config.Depth);
  S.Domain = Config.Domain;
  OpenSpan = Hit ? SIZE_MAX : Index;
  return Hit;
}

void TimingStore::store(const DatasetFingerprint &Data, const float *X,
                        unsigned NumFeatures, uint32_t PoisoningBudget,
                        const VerifierConfig &Config,
                        const Certificate &Cert) {
  size_t Index = OpenSpan;
  OpenSpan = SIZE_MAX;
  if (!Enabled.load(std::memory_order_acquire) || Index == SIZE_MAX) {
    if (Inner)
      Inner->store(Data, X, NumFeatures, PoisoningBudget, Config, Cert);
    return;
  }
  StoreSpan &S = Buffer[Index];
  S.StoreInNs = nowNs();
  if (Inner)
    Inner->store(Data, X, NumFeatures, PoisoningBudget, Config, Cert);
  S.StoreOutNs = nowNs();
  S.BestSplitCalls = Cert.BestSplitCalls;
  S.PeakDisjuncts = Cert.PeakDisjuncts;
  S.PeakStateBytes = Cert.PeakStateBytes;
  S.Terminals = Cert.NumTerminals;
}

bool TimingStore::probe(const DatasetFingerprint &Data, const float *X,
                        unsigned NumFeatures, uint32_t PoisoningBudget,
                        const VerifierConfig &Config, Certificate &Out) {
  return Inner &&
         Inner->probe(Data, X, NumFeatures, PoisoningBudget, Config, Out);
}
