//===- perfbench/src/SelfTest.cpp - The benchmark's own checks ------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// `antidote_perfbench --selftest`: the percentile code is exact on known
// inputs, and every generated input is a function of the seed alone.
// perfbench/test_perfbench.py runs it, and checks the printed metric
// names against BENCHMARK.json.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Stats.h"

#include "data/Registry.h"

#include <cmath>
#include <cstdio>

using namespace antidote;
using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    std::printf("FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-12; }

void testPercentiles() {
  std::vector<double> Ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(near(quantile(Ten, 0.5), 5.5), "p50 of 1..10 is 5.5");
  expect(near(quantile(Ten, 0.9), 9.1), "p90 of 1..10 is 9.1");
  expect(near(quantile(Ten, 0.0), 1.0), "p0 is the minimum");
  expect(near(quantile(Ten, 1.0), 10.0), "p100 is the maximum");
  expect(near(quantile({1, 2, 3, 4}, 0.25), 1.75), "p25 of 1..4 is 1.75");
  expect(near(median({3, 1, 2}), 2.0), "median of an odd sample");
  expect(near(median({7}), 7.0), "median of one sample");
  expect(quantile({}, 0.5) == 0.0, "empty sample reads 0");
  std::vector<double> Thousand;
  for (int I = 1; I <= 1000; ++I)
    Thousand.push_back(I);
  expect(near(quantileSorted(Thousand, 0.99), 990.01), "p99 of 1..1000");
  expect(countAbove(Thousand, 990.01) == 10, "10 samples beyond p99");
  expect(countAbove(Thousand, 1000) == 0, "none beyond the maximum");
  expect(near(mean({1, 2, 3, 4}), 2.5), "mean");
}

void testHotMix() {
  std::vector<HotQuery> A = makeHotMix(7, 100, 5000);
  std::vector<HotQuery> B = makeHotMix(7, 100, 5000);
  std::vector<HotQuery> C = makeHotMix(8, 100, 5000);
  bool Same = true, Differs = false, InRange = true;
  size_t Range = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    Same &= A[I].Row == B[I].Row && A[I].Range == B[I].Range &&
            A[I].Offset == B[I].Offset;
    Differs |= A[I].Row != C[I].Row;
    InRange &= A[I].Row < 100 && A[I].Offset >= 1 &&
               A[I].Offset <= HotMaxOffset;
    Range += A[I].Range;
  }
  expect(Same, "hot mix is a function of the seed");
  expect(Differs, "another seed gives another hot mix");
  expect(InRange, "hot rows and offsets stay in range");
  expect(Range > 1200 && Range < 1800, "about 30% of hot queries are range");

  Certificate Robust, Unknown;
  Robust.Kind = VerdictKind::Robust;
  Unknown.Kind = VerdictKind::Unknown;
  HotQuery Q{0, true, 5};
  expect(hotBudget(Q, Robust) == HotWarmBudget - 5, "robust: smaller n");
  expect(hotBudget(Q, Unknown) == HotWarmBudget + 5, "unknown: larger n");
  Q.Range = false;
  expect(hotBudget(Q, Robust) == HotWarmBudget, "exact query: warm n");
}

void testColdStream() {
  BenchmarkDataset Data =
      loadBenchmarkDataset("mnist17-binary", BenchScale::Scaled);
  ColdQueryStream A(Data.Split.Test, 11), B(Data.Split.Test, 11),
      C(Data.Split.Test, 12);
  std::vector<float> XA, XB, XC;
  bool Same = true, Differs = false;
  std::unordered_set<uint64_t> Keys;
  for (int I = 0; I < 500; ++I) {
    A.next(XA);
    B.next(XB);
    C.next(XC);
    Same &= XA == XB;
    Differs |= XA != XC;
    Keys.insert(queryKey(XA.data(), static_cast<unsigned>(XA.size()), 2));
  }
  expect(Same, "cold queries are a function of the seed");
  expect(Differs, "another seed gives other cold queries");
  expect(Keys.size() == 500, "cold queries are distinct");
}

void testScheduleAndOrder() {
  expect(openLoopDueNs(0, 10000) == 0, "first send is due at once");
  expect(openLoopDueNs(3, 10000) == 300000, "10k/s sends every 100 us");
  expect(openLoopDueNs(10000, 10000) == 1000000000, "10k sends in 1 s");
  std::vector<uint32_t> Rows = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<uint32_t> A = shuffled(Rows, 3), B = shuffled(Rows, 3),
                        C = shuffled(Rows, 4);
  expect(A == B, "instance order is a function of the seed");
  expect(A != C, "another seed gives another instance order");
  std::vector<uint32_t> Sorted = A;
  std::sort(Sorted.begin(), Sorted.end());
  expect(Sorted == Rows, "the order is a permutation");
}

void testCertificateEquality() {
  Certificate A;
  A.Kind = VerdictKind::Robust;
  A.PoisoningBudget = 16;
  A.CertifiedRadius = 16;
  A.DominatingClass = 1;
  A.Seconds = 0.25;
  Certificate B = expectedHotAnswer(A, 9);
  expect(B.PoisoningBudget == 9 && B.CertifiedRadius == 16,
         "range answer keeps the proof's radius");
  expect(!sameCertificate(A, B), "budgets must match");
  B.PoisoningBudget = 16;
  expect(sameCertificate(A, B), "equal certificates compare equal");
  B.Seconds = 0.5;
  expect(!sameCertificate(A, B), "seconds compared bit for bit");
}

} // namespace

int runSelfTest() {
  testPercentiles();
  testHotMix();
  testColdStream();
  testScheduleAndOrder();
  testCertificateEquality();
  std::printf("selftest: %s (%d failures)\n", Failures ? "FAILED" : "ok",
              Failures);
  return Failures ? 1 : 0;
}
