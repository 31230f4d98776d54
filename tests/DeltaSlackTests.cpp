//===- tests/DeltaSlackTests.cpp - Parent/child serving tests ------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// A child dataset derived from a parent by removing rows has its own
// fingerprint, so a certificate server over the child never answers from
// the parent's stored certificates — not through an exact key and not
// through the radius-range rule — even when the parent's proof was made
// at a wider radius. The child's queries verify fresh at their own
// radius.
//
//===----------------------------------------------------------------------===//

#include "serving/CertServer.h"
#include "serving/CertCache.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

/// Two well-separated classes (8 rows at {1,2,3,4}, 8 at {11,12,13,14}):
/// a depth-1 disjuncts verifier proves X=2.5 Robust at n=2, and the
/// margin survives removing a row.
Dataset separatedDataset() {
  Dataset D(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  for (int I = 0; I < 8; ++I)
    D.addRow({static_cast<float>(1 + I % 4)}, 0);
  for (int I = 0; I < 8; ++I)
    D.addRow({static_cast<float>(11 + I % 4)}, 1);
  return D;
}

VerifierConfig separatedConfig() {
  VerifierConfig Config;
  Config.Depth = 1;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 30.0;
  return Config;
}

} // namespace

TEST(DeltaSlackTest, ServerWithoutLineageServesExactOnly) {
  Dataset Parent = separatedDataset();
  Verifier PV(Parent);
  CertCache Backing(/*MaxBytes=*/0);
  VerifierConfig Seed = separatedConfig();
  Seed.Cache = &Backing;
  const float X[] = {2.5f};
  ASSERT_EQ(PV.verify(X, 2, Seed).Kind, VerdictKind::Robust);
  ASSERT_EQ(Backing.stats().LiveRecords, 1u);

  RowIndexList AllButFirst;
  for (uint32_t Row = 1; Row < Parent.numRows(); ++Row)
    AllButFirst.push_back(Row);
  Dataset Child = Dataset::gatherRows(Parent, AllButFirst);

  CertServerConfig SC;
  SC.Query = separatedConfig();
  SC.Jobs = 2;
  SC.Store = &Backing;
  CertServer Server(Child, SC);
  ASSERT_NE(Server.verifier().fingerprint(), PV.fingerprint());

  // The parent's wider proof is in the shared store, yet the child's
  // store probe finds nothing to serve.
  Certificate Probed;
  EXPECT_FALSE(Server.probeStore(X, 1, Probed));

  // The child verifies fresh and never consults the parent's entries.
  StoreStats Before = Backing.stats();
  Certificate Cert = Server.submit({2.5f}, 1).get();
  EXPECT_EQ(Cert.Kind, VerdictKind::Robust);
  EXPECT_EQ(Cert.CertifiedRadius, 1u);
  StoreStats After = Backing.stats();
  EXPECT_EQ(After.Hits, Before.Hits);
  EXPECT_EQ(After.RangeHits, Before.RangeHits);
  EXPECT_EQ(After.LiveRecords, 2u);
}
