//===- tests/CertCacheTests.cpp - Certificate cache tests ---------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The serving layer's core invariant — cached ≡ fresh — plus the LRU
// byte-budget mechanics and the concurrent-worker safety the TSan CI job
// checks. Also covers the key discipline: scheduling knobs must share
// entries, result-relevant knobs must split them, and a dataset mutation
// must miss via the fingerprint.
//
//===----------------------------------------------------------------------===//

#include "serving/CertCache.h"

#include "TestUtil.h"
#include "data/Synthetic.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

/// Field-by-field certificate identity, `Seconds` included: a hit returns
/// the stored certificate verbatim.
void expectIdenticalCertificates(const Certificate &A, const Certificate &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.PoisoningBudget, B.PoisoningBudget);
  EXPECT_EQ(A.CertifiedRadius, B.CertifiedRadius);
  EXPECT_EQ(A.Depth, B.Depth);
  EXPECT_EQ(A.Domain, B.Domain);
  EXPECT_EQ(A.ConcretePrediction, B.ConcretePrediction);
  EXPECT_EQ(A.DominatingClass, B.DominatingClass);
  EXPECT_EQ(A.NumTerminals, B.NumTerminals);
  EXPECT_EQ(A.PeakDisjuncts, B.PeakDisjuncts);
  EXPECT_EQ(A.PeakStateBytes, B.PeakStateBytes);
  EXPECT_EQ(A.BestSplitCalls, B.BestSplitCalls);
  EXPECT_EQ(A.Seconds, B.Seconds);
}

VerifierConfig makeConfig(AbstractDomainKind Domain) {
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = Domain;
  Config.DisjunctCap = 4;
  Config.Limits.TimeoutSeconds = 30.0;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cached ≡ fresh, across all three abstract domains
//===----------------------------------------------------------------------===//

class CacheIdentityTest
    : public ::testing::TestWithParam<AbstractDomainKind> {};

TEST_P(CacheIdentityTest, HitIsByteIdenticalToColdRun) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(/*MaxBytes=*/0);
  VerifierConfig Config = makeConfig(GetParam());
  Config.Cache = &Cache;
  const float X[] = {9.5f};

  // Cold run: misses, verifies, seeds the cache.
  Certificate Cold = V.verify(X, /*PoisoningBudget=*/2, Config);
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Stores, 1u);

  // Warm run: served from the cache, verbatim — Seconds included, which
  // a re-verification could never reproduce exactly.
  Certificate Warm = V.verify(X, /*PoisoningBudget=*/2, Config);
  Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  expectIdenticalCertificates(Cold, Warm);

  // And identical (Seconds aside, which is wall clock) to a cache-less
  // verification: serving from the cache never changes an answer.
  VerifierConfig Fresh = makeConfig(GetParam());
  Certificate Reverified = V.verify(X, /*PoisoningBudget=*/2, Fresh);
  EXPECT_EQ(Warm.Kind, Reverified.Kind);
  EXPECT_EQ(Warm.ConcretePrediction, Reverified.ConcretePrediction);
  EXPECT_EQ(Warm.DominatingClass, Reverified.DominatingClass);
  EXPECT_EQ(Warm.NumTerminals, Reverified.NumTerminals);
  EXPECT_EQ(Warm.PeakDisjuncts, Reverified.PeakDisjuncts);
  EXPECT_EQ(Warm.PeakStateBytes, Reverified.PeakStateBytes);
  EXPECT_EQ(Warm.BestSplitCalls, Reverified.BestSplitCalls);
}

INSTANTIATE_TEST_SUITE_P(AllDomains, CacheIdentityTest,
                         ::testing::Values(AbstractDomainKind::Box,
                                           AbstractDomainKind::Disjuncts,
                                           AbstractDomainKind::DisjunctsCapped),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case AbstractDomainKind::Box:
                             return "Box";
                           case AbstractDomainKind::Disjuncts:
                             return "Disjuncts";
                           case AbstractDomainKind::DisjunctsCapped:
                             return "DisjunctsCapped";
                           }
                           return "Unknown";
                         });

//===----------------------------------------------------------------------===//
// Key discipline
//===----------------------------------------------------------------------===//

TEST(CertCacheTest, ResultRelevantKnobsSplitEntries) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(0);
  const float X[] = {9.5f};

  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cache = &Cache;
  Certificate Stored = V.verify(X, 2, Config);

  // A different budget is no longer a plain miss: the radius-range index
  // covers it when the verdict lattice allows. Here the stored verdict
  // at radius 2 is Unknown, which answers the *wider* budget 3 a
  // fortiori — served as a range hit, not an exact one.
  ASSERT_EQ(Stored.Kind, VerdictKind::Unknown);
  Certificate RangeServed = V.verify(X, 3, Config);
  EXPECT_EQ(RangeServed.Kind, VerdictKind::Unknown);
  EXPECT_EQ(RangeServed.PoisoningBudget, 3u);
  EXPECT_EQ(RangeServed.CertifiedRadius, 2u);
  EXPECT_EQ(Cache.stats().RangeHits, 1u);

  // Depth, domain, limits: all result-relevant, all must miss — the
  // range rule never crosses them (they change the base key).
  VerifierConfig Deeper = Config;
  Deeper.Depth = 3;
  V.verify(X, 2, Deeper);
  VerifierConfig Boxed = Config;
  Boxed.Domain = AbstractDomainKind::Box;
  V.verify(X, 2, Boxed);
  VerifierConfig Tighter = Config;
  Tighter.Limits.MaxDisjuncts = 7;
  V.verify(X, 2, Tighter);
  VerifierConfig OtherTimeout = Config;
  OtherTimeout.Limits.TimeoutSeconds = 60.0;
  V.verify(X, 2, OtherTimeout);
  // A different query vector, too.
  const float Y[] = {2.5f};
  V.verify(Y, 2, Config);

  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.RangeHits, 1u);
  EXPECT_EQ(Stats.Misses, 6u);
}

TEST(CertCacheTest, SchedulingKnobsShareEntries) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(0);
  const float X[] = {9.5f};

  VerifierConfig Serial = makeConfig(AbstractDomainKind::Disjuncts);
  Serial.Cache = &Cache;
  Certificate Cold = V.verify(X, 2, Serial);

  // Certificates are bit-identical across pool sizes (the engine's core
  // guarantee), so a parallel client must hit the entry a serial one
  // stored.
  std::unique_ptr<ThreadPool> Pool = makeVerificationPool(4);
  Certificate Warm = V.verify(X, 2, Serial, Pool.get());

  EXPECT_EQ(Cache.stats().Hits, 1u);
  expectIdenticalCertificates(Cold, Warm);

  // DisjunctCap is ignored by the uncapped domains — normalized out of
  // their keys.
  VerifierConfig OtherCap = Serial;
  OtherCap.DisjunctCap = 128;
  V.verify(X, 2, OtherCap);
  EXPECT_EQ(Cache.stats().Hits, 2u);
}

TEST(CertCacheTest, DatasetMutationMissesViaFingerprint) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);

  // The same 13 rows plus one appended: a different training set whose
  // certificates must not be conflated with the original's.
  Dataset Mutated = figure2Dataset();
  Mutated.addRow({5.0f}, 1);
  Verifier VMutated(Mutated);
  ASSERT_NE(V.fingerprint(), VMutated.fingerprint());

  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cache = &Cache;
  const float X[] = {9.5f};
  V.verify(X, 2, Config);
  VMutated.verify(X, 2, Config);
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.LiveRecords, 2u);

  // The same rows minus the first: every subset of it is a subset of the
  // original, yet a proof on the original at a wider radius must not
  // answer it, not even through the range rule. It verifies fresh at
  // its own radius.
  RowIndexList AllButFirst;
  for (uint32_t Row = 1; Row < Train.numRows(); ++Row)
    AllButFirst.push_back(Row);
  Dataset Smaller = Dataset::gatherRows(Train, AllButFirst);
  Verifier VSmaller(Smaller);
  ASSERT_NE(V.fingerprint(), VSmaller.fingerprint());

  CertCache Wide(0);
  Config.Cache = &Wide;
  Config.Depth = 1;
  const float Five[] = {5.0f}; // §2: white at depth 1 under one removal.
  ASSERT_EQ(V.verify(Five, 1, Config).Kind, VerdictKind::Robust);
  Certificate Child = VSmaller.verify(Five, 0, Config);
  EXPECT_EQ(Child.CertifiedRadius, 0u);
  Stats = Wide.stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.RangeHits, 0u);
  EXPECT_EQ(Stats.Misses, 2u);
  // Control: on the original set the same query is a range hit.
  EXPECT_EQ(V.verify(Five, 0, Config).CertifiedRadius, 1u);
  EXPECT_EQ(Wide.stats().RangeHits, 1u);
}

TEST(CertCacheTest, TimeoutVerdictsAreNeverCached) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Depth = 4;
  Config.Limits.TimeoutSeconds = 1e-9; // Expires immediately.
  Config.Cache = &Cache;
  const float X[] = {9.5f};
  Certificate Cert = V.verify(X, 8, Config);
  ASSERT_EQ(Cert.Kind, VerdictKind::Timeout);
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Stores, 0u);
  EXPECT_EQ(Stats.LiveRecords, 0u);
}

TEST(CertCacheTest, CancelledVerdictsAreNeverCached) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(0);
  CancellationToken Cancel;
  Cancel.cancel();
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cancel = &Cancel;
  Config.Cache = &Cache;
  const float X[] = {9.5f};
  Certificate Cert = V.verify(X, 2, Config);
  ASSERT_EQ(Cert.Kind, VerdictKind::Cancelled);
  EXPECT_EQ(Cache.stats().Stores, 0u);
}

TEST(CertCacheTest, ResourceLimitVerdictsAreCached) {
  // Deterministic failure (the disjunct cap does not depend on wall
  // clock), so replaying it is sound — and valuable: the expensive
  // queries are exactly the ones that blow the budget.
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Depth = 4;
  Config.Limits.MaxDisjuncts = 2;
  Config.Cache = &Cache;
  const float X[] = {9.5f};
  Certificate Cold = V.verify(X, 8, Config);
  ASSERT_EQ(Cold.Kind, VerdictKind::ResourceLimit);
  Certificate Warm = V.verify(X, 8, Config);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  expectIdenticalCertificates(Cold, Warm);
}

//===----------------------------------------------------------------------===//
// LRU eviction under a byte budget
//===----------------------------------------------------------------------===//

namespace {

/// Measures what one single-feature Box entry costs in this build (the
/// accounting is approximate and struct sizes vary by platform, so the
/// eviction tests size their budgets empirically instead of hard-coding
/// byte counts).
uint64_t oneEntryBytes(Verifier &V) {
  CertCache Probe(/*MaxBytes=*/0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = &Probe;
  const float X[] = {9.5f};
  V.verify(X, 1, Config);
  return Probe.stats().LiveBytes;
}

} // namespace

TEST(CertCacheTest, EvictsLeastRecentlyUsedUnderTinyBudget) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  // Budget sized for exactly two single-feature entries: inserting a
  // third must evict the least recently used.
  const uint64_t Budget = 2 * oneEntryBytes(V) + oneEntryBytes(V) / 2;
  CertCache Cache(Budget);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = &Cache;
  const float A[] = {1.5f}, B[] = {9.5f}, C[] = {12.5f};

  V.verify(A, 1, Config);
  V.verify(B, 1, Config);
  EXPECT_EQ(Cache.stats().LiveRecords, 2u);

  // Touch A so B becomes the LRU victim.
  V.verify(A, 1, Config);
  EXPECT_EQ(Cache.stats().Hits, 1u);

  V.verify(C, 1, Config);
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_EQ(Stats.LiveRecords, 2u);
  EXPECT_LE(Stats.LiveBytes, Budget);

  // A (recently touched) still hits; B (evicted) misses again.
  uint64_t HitsBefore = Stats.Hits;
  V.verify(A, 1, Config);
  EXPECT_EQ(Cache.stats().Hits, HitsBefore + 1);
  uint64_t MissesBefore = Cache.stats().Misses;
  V.verify(B, 1, Config);
  EXPECT_EQ(Cache.stats().Misses, MissesBefore + 1);
}

TEST(CertCacheTest, BudgetIsAlwaysRespected) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  const uint64_t Budget = 3 * oneEntryBytes(V) + oneEntryBytes(V) / 2;
  CertCache Cache(Budget);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = &Cache;
  for (int I = 0; I < 12; ++I) {
    const float X[] = {static_cast<float>(I) + 0.5f};
    V.verify(X, 1, Config);
    EXPECT_LE(Cache.stats().LiveBytes, Budget);
  }
  StoreStats Stats = Cache.stats();
  EXPECT_GT(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.Stores, 12u);
  EXPECT_EQ(Stats.LiveRecords, Stats.Stores - Stats.Evictions);
}

TEST(CertCacheTest, EntryChargeCoversKeyCertificateAndNodeOverhead) {
  // The eviction charge must never undercount to just the certificate
  // bytes: the key (query vector included, which the map owns) and the
  // container node overhead are resident too, so a tiny-budget
  // configuration has to bound them as well. Pin the floor of the
  // charge: key + certificate + the query's heap block, with node
  // overhead strictly on top.
  StoreKey K;
  K.Query.assign(4, 1.0f);
  uint64_t Charge = CertCache::entryBytes(K);
  EXPECT_GT(Charge, sizeof(StoreKey) + sizeof(Certificate) +
                        K.Query.capacity() * sizeof(float));

  // And the charge grows with the query (the dominant variable term).
  StoreKey Wide = K;
  Wide.Query.assign(784, 0.5f); // An MNIST-sized query vector.
  EXPECT_GE(CertCache::entryBytes(Wide),
            Charge + (784 - 4) * sizeof(float));
}

TEST(CertCacheTest, EntryLargerThanWholeBudgetIsDeclined) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(oneEntryBytes(V) / 2); // Smaller than any entry.
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = &Cache;
  const float X[] = {9.5f};
  V.verify(X, 1, Config);
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Declined, 1u);
  EXPECT_EQ(Stats.Stores, 0u);
  EXPECT_EQ(Stats.LiveRecords, 0u);
  EXPECT_EQ(Stats.LiveBytes, 0u);
}

TEST(CertCacheTest, ClearDropsEntriesButKeepsCounters) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = &Cache;
  const float X[] = {9.5f};
  V.verify(X, 1, Config);
  Cache.clear();
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.LiveRecords, 0u);
  EXPECT_EQ(Stats.LiveBytes, 0u);
  EXPECT_EQ(Stats.Stores, 1u);
  V.verify(X, 1, Config);
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

//===----------------------------------------------------------------------===//
// Concurrent access from pool workers (the TSan CI job runs this suite)
//===----------------------------------------------------------------------===//

TEST(CertCacheTest, ConcurrentBatchWorkersShareOneCache) {
  Rng R(77);
  RandomDatasetSpec Spec;
  Spec.MinRows = 8;
  Spec.MaxRows = 12;
  Dataset Train = makeRandomDataset(R, Spec);
  Verifier V(Train);
  CertCache Cache(/*MaxBytes=*/4096); // Small: force concurrent evictions.
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cache = &Cache;

  // 48 queries over 16 distinct points: every point repeats, and with 4
  // workers hammering one cache, lookups/stores/evictions interleave.
  std::vector<std::vector<float>> Points;
  for (int I = 0; I < 16; ++I)
    Points.push_back(makeRandomQuery(R, Spec));
  std::vector<const float *> Inputs;
  for (int Round = 0; Round < 3; ++Round)
    for (const auto &P : Points)
      Inputs.push_back(P.data());

  std::unique_ptr<ThreadPool> Pool = makeVerificationPool(4);
  std::vector<Certificate> Certs = V.verifyBatch(Inputs, 2, Config,
                                                 Pool.get());

  // Whatever the interleaving, every served certificate matches a
  // cache-less verification in every deterministic field.
  VerifierConfig Fresh = makeConfig(AbstractDomainKind::Disjuncts);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Certificate Expected = V.verify(Inputs[I], 2, Fresh);
    EXPECT_EQ(Certs[I].Kind, Expected.Kind) << "query " << I;
    EXPECT_EQ(Certs[I].ConcretePrediction, Expected.ConcretePrediction);
    EXPECT_EQ(Certs[I].NumTerminals, Expected.NumTerminals);
    EXPECT_EQ(Certs[I].PeakDisjuncts, Expected.PeakDisjuncts);
  }
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, Inputs.size());
  EXPECT_GE(Stats.Misses, 16u); // At least one cold run per point.
}

//===----------------------------------------------------------------------===//
// Radius-range lookup: the serving lattice (Robust down, Unknown up)
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic *original* proof at \p Radius: `CertifiedRadius` equals the
/// key's budget, so storing it registers it in the range index.
Certificate makeProof(VerdictKind Kind, uint32_t Radius,
                      size_t NumTerminals = 1) {
  Certificate Cert;
  Cert.Kind = Kind;
  Cert.PoisoningBudget = Radius;
  Cert.CertifiedRadius = Radius;
  Cert.NumTerminals = NumTerminals;
  return Cert;
}

DatasetFingerprint someFingerprint() {
  DatasetFingerprint FP;
  FP.Hi = 0x1234;
  FP.Lo = 0x5678;
  return FP;
}

} // namespace

TEST(CertCacheRangeTest, RobustServesEveryNarrowerBudget) {
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  Cache.store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));

  for (uint32_t N = 0; N <= 4; ++N) {
    Certificate Out;
    ASSERT_TRUE(Cache.lookup(FP, X, 1, N, Config, Out)) << "budget " << N;
    EXPECT_EQ(Out.Kind, VerdictKind::Robust);
    EXPECT_EQ(Out.PoisoningBudget, N);    // Rewritten to the queried n.
    EXPECT_EQ(Out.CertifiedRadius, 5u);   // Still names the stored proof.
  }

  // The stored budget itself is an exact hit, not a range one; anything
  // wider than the proof is a miss.
  Certificate Out;
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 5, Config, Out));
  EXPECT_EQ(Out.PoisoningBudget, 5u);
  EXPECT_FALSE(Cache.lookup(FP, X, 1, 6, Config, Out));

  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.RangeHits, 5u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
}

TEST(CertCacheRangeTest, UnknownServesEveryWiderBudget) {
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  Cache.store(FP, X, 1, 5, Config, makeProof(VerdictKind::Unknown, 5));

  Certificate Out;
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 7, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Unknown);
  EXPECT_EQ(Out.PoisoningBudget, 7u);
  EXPECT_EQ(Out.CertifiedRadius, 5u);

  // Narrower budgets are not covered: the abstraction might succeed there.
  EXPECT_FALSE(Cache.lookup(FP, X, 1, 3, Config, Out));

  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.RangeHits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
}

TEST(CertCacheRangeTest, TightestCoveringRobustProofServes) {
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  Cache.store(FP, X, 1, 5, Config,
              makeProof(VerdictKind::Robust, 5, /*NumTerminals=*/55));
  Cache.store(FP, X, 1, 9, Config,
              makeProof(VerdictKind::Robust, 9, /*NumTerminals=*/99));

  Certificate Out;
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u); // Tightest covering proof wins.
  EXPECT_EQ(Out.NumTerminals, 55u);

  ASSERT_TRUE(Cache.lookup(FP, X, 1, 7, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 9u);
  EXPECT_EQ(Out.NumTerminals, 99u);
}

TEST(CertCacheRangeTest, RobustPreferredOverUnknownFallback) {
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  Cache.store(FP, X, 1, 2, Config, makeProof(VerdictKind::Unknown, 2));
  Cache.store(FP, X, 1, 6, Config, makeProof(VerdictKind::Robust, 6));

  // Both entries could serve n=4 (Unknown@2 goes up, Robust@6 comes
  // down); the informative verdict wins.
  Certificate Out;
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 4, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Robust);
  EXPECT_EQ(Out.CertifiedRadius, 6u);

  // Beyond the widest Robust proof only the failed attempt remains.
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 7, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Unknown);
  EXPECT_EQ(Out.CertifiedRadius, 2u);

  // Below the failed attempt with no covering proof... Robust@6 still
  // covers n=1, so it serves; this pins the lower_bound probe.
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 1, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Robust);
}

TEST(CertCacheRangeTest, ResourceLimitVerdictsServeExactOnly) {
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  Cache.store(FP, X, 1, 5, Config, makeProof(VerdictKind::ResourceLimit, 5));

  Certificate Out;
  EXPECT_FALSE(Cache.lookup(FP, X, 1, 4, Config, Out));
  EXPECT_FALSE(Cache.lookup(FP, X, 1, 6, Config, Out));
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 5, Config, Out));
  EXPECT_EQ(Cache.stats().RangeHits, 0u);
}

TEST(CertCacheRangeTest, PromotedOffBudgetEntryServesExactOnly) {
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};

  // What the tiered store writes when promoting a disk range hit: keyed
  // under the *queried* budget 3 but certifying radius 5. It must stay
  // out of the range index (the original radius-5 proof, wherever it
  // lives, already covers everything this one could serve).
  Certificate Promoted = makeProof(VerdictKind::Robust, 5);
  Promoted.PoisoningBudget = 3;
  Cache.store(FP, X, 1, 3, Config, Promoted);

  Certificate Out;
  EXPECT_FALSE(Cache.lookup(FP, X, 1, 2, Config, Out));
  ASSERT_TRUE(Cache.lookup(FP, X, 1, 3, Config, Out)); // Exact repeats hit.
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Cache.stats().RangeHits, 0u);
}

TEST(CertCacheRangeTest, EvictionUnregistersRangeEntries) {
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float A[] = {1.0f};
  const float B[] = {2.0f};
  const float C[] = {3.0f};
  uint64_t One = CertCache::entryBytes(makeStoreKey(FP, A, 1, 5, Config));

  // Room for two entries; the third store evicts the LRU tail (A).
  CertCache Cache(2 * One + One / 2);
  Cache.store(FP, A, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  Cache.store(FP, B, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  Cache.store(FP, C, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  ASSERT_GE(Cache.stats().Evictions, 1u);

  // A's proof is gone from the range index with it; B and C still serve.
  Certificate Out;
  EXPECT_FALSE(Cache.lookup(FP, A, 1, 3, Config, Out));
  EXPECT_TRUE(Cache.lookup(FP, B, 1, 3, Config, Out));
  EXPECT_TRUE(Cache.lookup(FP, C, 1, 3, Config, Out));
}

TEST(CertCacheRangeTest, ClearDropsTheRangeIndex) {
  CertCache Cache(0);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  Cache.store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  Cache.clear();

  Certificate Out;
  EXPECT_FALSE(Cache.lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Cache.stats().RangeHits, 0u);
}
