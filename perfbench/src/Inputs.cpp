//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include <cmath>
#include <cstring>

using namespace antidote;
using namespace perfbench;

std::vector<HotQuery> perfbench::makeHotMix(uint64_t Seed, uint32_t Rows,
                                            size_t Count) {
  Rng R(Seed ^ 0x6f7448ULL);
  std::vector<HotQuery> Mix(Count);
  for (HotQuery &Q : Mix) {
    Q.Row = static_cast<uint32_t>(R.uniformInt(Rows));
    Q.Range = R.bernoulli(HotRangeShare);
    Q.Offset = 1 + static_cast<uint32_t>(R.uniformInt(HotMaxOffset));
  }
  return Mix;
}

uint32_t perfbench::hotBudget(const HotQuery &Query, const Certificate &Warm) {
  if (!Query.Range)
    return HotWarmBudget;
  if (Warm.Kind == VerdictKind::Robust)
    return HotWarmBudget - Query.Offset;
  if (Warm.Kind == VerdictKind::Unknown)
    return HotWarmBudget + Query.Offset;
  return HotWarmBudget;
}

Certificate perfbench::expectedHotAnswer(const Certificate &Warm,
                                         uint32_t Budget) {
  Certificate Expected = Warm;
  Expected.PoisoningBudget = Budget;
  return Expected;
}

ColdQueryStream::ColdQueryStream(const Dataset &Test, uint64_t Seed)
    : Test(Test), R(Seed ^ 0x646c6f63ULL) {}

void ColdQueryStream::next(std::vector<float> &X) {
  unsigned Features = Test.numFeatures();
  for (;;) {
    const float *Row =
        Test.row(static_cast<unsigned>(R.uniformInt(Test.numRows())));
    X.assign(Row, Row + Features);
    for (unsigned I = 0; I < Flips; ++I) {
      float &V = X[R.uniformInt(Features)];
      V = V > 0.5f ? 0.0f : 1.0f;
    }
    if (Seen.insert(fnv1a(X.data(), X.size() * sizeof(float))).second)
      return;
  }
}

int64_t perfbench::openLoopDueNs(uint64_t Index, double Rate) {
  return static_cast<int64_t>(std::llround(static_cast<double>(Index) *
                                            (1e9 / Rate)));
}

std::vector<uint32_t> perfbench::shuffled(std::vector<uint32_t> Rows,
                                          uint64_t Seed) {
  Rng R(Seed ^ 0x7065657773ULL);
  for (size_t I = Rows.size(); I > 1; --I)
    std::swap(Rows[I - 1], Rows[R.uniformInt(I)]);
  return Rows;
}

bool perfbench::sameCertificate(const Certificate &A, const Certificate &B) {
  return A.Kind == B.Kind && A.PoisoningBudget == B.PoisoningBudget &&
         A.CertifiedRadius == B.CertifiedRadius && A.Depth == B.Depth &&
         A.Domain == B.Domain && A.Threat == B.Threat &&
         A.ConcretePrediction == B.ConcretePrediction &&
         A.DominatingClass == B.DominatingClass &&
         A.NumTerminals == B.NumTerminals &&
         A.PeakDisjuncts == B.PeakDisjuncts &&
         A.PeakStateBytes == B.PeakStateBytes &&
         A.BestSplitCalls == B.BestSplitCalls &&
         std::memcmp(&A.Seconds, &B.Seconds, sizeof(double)) == 0;
}

uint64_t perfbench::fnv1a(const void *Data, size_t Size, uint64_t Hash) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

uint64_t perfbench::queryKey(const float *X, unsigned NumFeatures,
                             uint32_t Budget) {
  return fnv1a(&Budget, sizeof(Budget),
               fnv1a(X, static_cast<size_t>(NumFeatures) * sizeof(float)));
}
