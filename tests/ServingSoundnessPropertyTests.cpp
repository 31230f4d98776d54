//===- tests/ServingSoundnessPropertyTests.cpp - Served ≡ sound ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Randomized property tests for the cross-key serving rule, the
// radius-range lattice (Robust down, Unknown up; serving/StoreKey.h), on
// each path that serves it: in process, over the wire and from a
// replica. The one property that must never break, across all three abstract
// domains and both threat models (flips run Disjuncts only — the one
// domain the flip transformers are sound under):
//
//   whenever the store serves Robust, a fresh cache-less verification
//   of the same query says Robust too — and never the reverse
//   (a store must not conjure a proof verification cannot reproduce).
//
// A served Unknown is vacuously sound (it claims nothing), so only the
// Robust direction is a soundness property; the tests still run fresh
// verification on every served answer to catch a served-Robust /
// fresh-Unknown divergence on any path.
//
//===----------------------------------------------------------------------===//

#include "serving/CertCache.h"
#include "serving/DiskCertStore.h"
#include "serving/NetServer.h"
#include "serving/Replicator.h"

#include "NetHarness.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <string>
#include <unistd.h>
#include <utility>

using namespace antidote;
using namespace antidote::testutil;

namespace {

/// One (domain, threat) cell of the property matrix.
using ServingParam = std::pair<AbstractDomainKind, ThreatModelKind>;

VerifierConfig paramConfig(const ServingParam &Param) {
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = Param.first;
  Config.Threat = Param.second;
  Config.DisjunctCap = 4;
  Config.Limits.TimeoutSeconds = 30.0;
  return Config;
}

/// Only deterministic verdicts participate in the property (a Timeout
/// would make the fresh reference itself unstable; the store never
/// holds one anyway).
bool deterministic(VerdictKind Kind) {
  return Kind == VerdictKind::Robust || Kind == VerdictKind::Unknown ||
         Kind == VerdictKind::ResourceLimit;
}

/// A throwaway store directory for the replication property (flat:
/// LOCK + segments).
class TempStoreDir {
public:
  TempStoreDir() {
    char Template[] = "/tmp/antidote-soundness-repl-XXXXXX";
    const char *Made = mkdtemp(Template);
    EXPECT_NE(Made, nullptr);
    Dir = Made ? Made : "";
  }
  ~TempStoreDir() {
    if (Dir.empty())
      return;
    if (DIR *D = opendir(Dir.c_str())) {
      while (struct dirent *Entry = readdir(D)) {
        std::string Name = Entry->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Dir + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Dir.c_str());
  }

  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

} // namespace

class ServingSoundnessProperty
    : public ::testing::TestWithParam<ServingParam> {};

// Seed the store with a fresh proof at one radius, query every other
// radius: whatever the range rule serves must agree with fresh
// verification on the Robust direction. Budgets nest under both threat
// models, so the range lattice applies per model unchanged.
TEST_P(ServingSoundnessProperty, RangeServedRobustImpliesFreshRobust) {
  Rng R(0xA57C0DE + static_cast<uint64_t>(GetParam().first) * 7 +
        static_cast<uint64_t>(GetParam().second) * 131);
  RandomDatasetSpec Spec;
  VerifierConfig Fresh = paramConfig(GetParam());

  for (int Trial = 0; Trial < 12; ++Trial) {
    Dataset Train = makeRandomDataset(R, Spec);
    Verifier V(Train);
    std::vector<float> X = makeRandomQuery(R, Spec);

    CertCache Cache(/*MaxBytes=*/0);
    VerifierConfig Cached = paramConfig(GetParam());
    Cached.Cache = &Cache;

    uint32_t SeedRadius = 1 + static_cast<uint32_t>(R.uniformInt(4));
    Certificate SeedCert = V.verify(X.data(), SeedRadius, Cached);
    if (!deterministic(SeedCert.Kind))
      continue;

    for (uint32_t N = 1; N <= 6; ++N) {
      Certificate Served;
      if (!Cache.lookup(V.fingerprint(), X.data(), Train.numFeatures(), N,
                        Cached, Served))
        continue;
      Certificate Reference = V.verify(X.data(), N, Fresh);
      if (!deterministic(Reference.Kind))
        continue;
      EXPECT_EQ(Served.PoisoningBudget, N);
      if (Served.Kind == VerdictKind::Robust) {
        EXPECT_EQ(Reference.Kind, VerdictKind::Robust)
            << "unsound range serve: trial " << Trial << " seed radius "
            << SeedRadius << " (" << SeedCert.CertifiedRadius
            << ") query " << N;
      }
      // And the reverse inclusion the lattice promises: any budget the
      // seed proof covers must actually be served.
      if (SeedCert.Kind == VerdictKind::Robust && N <= SeedRadius) {
        EXPECT_EQ(Served.Kind, VerdictKind::Robust);
      }
    }
  }
}

// The wire is not a second serving rule, but it is a second place to get
// one wrong: the network tier decodes, admits, submits ticketed (its own
// token, deadline, completion callback), and re-encodes every
// certificate. Random traffic through a real socket — repeats (the
// range path), mixed budgets, occasional near-zero deadlines (the
// timeout path) — must uphold the same property: a wire Robust implies
// a fresh cache-less Robust. Everything else (Unknown, Timeout,
// ResourceLimit) claims nothing.
TEST_P(ServingSoundnessProperty, WireServedRobustImpliesFreshRobust) {
  Rng R(0x3E7A11 + static_cast<uint64_t>(GetParam().first) * 7 +
        static_cast<uint64_t>(GetParam().second) * 131);
  RandomDatasetSpec Spec;
  VerifierConfig Fresh = paramConfig(GetParam());

  for (int Trial = 0; Trial < 4; ++Trial) {
    Dataset Train = makeRandomDataset(R, Spec);
    CertServerConfig Config;
    Config.Query = paramConfig(GetParam());
    Config.Jobs = 2;
    CertServer Server(Train, Config);
    NetServer Net(Server, NetServerConfig());
    std::string Error;
    ASSERT_TRUE(Net.start(Error)) << Error;

    testharness::NetClient Client(Net.port());
    ASSERT_TRUE(Client.connected());

    // Pipeline a mixed batch: few distinct points so repeats (and the
    // range rule underneath them) occur often.
    std::vector<std::vector<float>> Points;
    for (int I = 0; I < 4; ++I)
      Points.push_back(makeRandomQuery(R, Spec));
    std::vector<std::pair<std::vector<float>, uint32_t>> Sent;
    constexpr uint64_t NumQueries = 16;
    for (uint64_t Tag = 0; Tag < NumQueries; ++Tag) {
      const std::vector<float> &X =
          Points[static_cast<size_t>(R.uniformInt(Points.size()))];
      uint32_t N = 1 + static_cast<uint32_t>(R.uniformInt(4));
      uint32_t DeadlineMillis =
          R.bernoulli(0.25) ? 1 + static_cast<uint32_t>(R.uniformInt(5))
                            : 0;
      Sent.emplace_back(X, N);
      ASSERT_TRUE(Client.send(
          testharness::makeRequest(Tag, N, X, DeadlineMillis)));
    }

    for (uint64_t I = 0; I < NumQueries; ++I) {
      NetResponse Response;
      ASSERT_TRUE(Client.recvResponse(Response));
      ASSERT_EQ(Response.Status, NetStatus::Ok);
      ASSERT_LT(Response.Tag, Sent.size()); // Deadlines may reorder.
      const std::vector<float> &X = Sent[Response.Tag].first;
      uint32_t N = Sent[Response.Tag].second;
      EXPECT_EQ(Response.Cert.PoisoningBudget, N);
      if (Response.Cert.Kind != VerdictKind::Robust)
        continue;
      Certificate Reference = Server.verifier().verify(X.data(), N, Fresh);
      if (!deterministic(Reference.Kind))
        continue;
      EXPECT_EQ(Reference.Kind, VerdictKind::Robust)
          << "unsound wire serve: trial " << Trial << " tag "
          << Response.Tag << " budget " << N << " served radius "
          << Response.Cert.CertifiedRadius;
    }
    Net.stop();
  }
}

// The replication pipeline in the loop: certificates proven on a source
// node cross a real socket into a replica store, and every
// replica-served answer must be the source's record byte for byte —
// Seconds included, which no re-verification could reproduce — while
// every replica-served Robust must still be provable fresh. A
// replication bug that altered even one payload byte would trip the
// checksum (skipped, counted), so the only way a wrong cert could be
// served is a hole in exactly this property.
TEST_P(ServingSoundnessProperty, ReplicaServedRobustImpliesFreshRobust) {
  Rng R(0x5EB1CA7E + static_cast<uint64_t>(GetParam().first) * 7 +
        static_cast<uint64_t>(GetParam().second) * 131);
  RandomDatasetSpec Spec;
  VerifierConfig Fresh = paramConfig(GetParam());

  for (int Trial = 0; Trial < 2; ++Trial) {
    Dataset Train = makeRandomDataset(R, Spec);
    Verifier V(Train);

    // Source node: disk store behind a NetServer whose socket also
    // answers replication polls.
    TempStoreDir SourceDir;
    DiskCertStore::OpenResult SourceOpen =
        DiskCertStore::open(SourceDir.path());
    ASSERT_TRUE(SourceOpen.ok()) << SourceOpen.Error;
    CertServerConfig ServerConfig;
    ServerConfig.Query = paramConfig(GetParam());
    ServerConfig.Jobs = 1;
    ServerConfig.Store = SourceOpen.Store.get();
    CertServer Server(Train, ServerConfig);
    NetServer Net(Server, NetServerConfig());
    std::string Error;
    ASSERT_TRUE(Net.start(Error)) << Error;

    // Seed the source with random (point, budget) proofs.
    VerifierConfig Seeding = paramConfig(GetParam());
    Seeding.Cache = SourceOpen.Store.get();
    std::vector<std::pair<std::vector<float>, uint32_t>> Seeded;
    std::vector<Certificate> SourceCerts;
    for (int I = 0; I < 6; ++I) {
      std::vector<float> X = makeRandomQuery(R, Spec);
      uint32_t N = 1 + static_cast<uint32_t>(R.uniformInt(3));
      Certificate Cert = V.verify(X.data(), N, Seeding);
      if (!deterministic(Cert.Kind))
        continue;
      Seeded.emplace_back(std::move(X), N);
      SourceCerts.push_back(Cert);
    }

    // Replica node: pull everything over the wire.
    TempStoreDir ReplicaDir;
    DiskCertStore::OpenResult ReplicaOpen =
        DiskCertStore::open(ReplicaDir.path());
    ASSERT_TRUE(ReplicaOpen.ok()) << ReplicaOpen.Error;
    ReplicatorConfig ReplConfig;
    ReplConfig.Port = Net.port();
    Replicator Repl(*ReplicaOpen.Store, ReplConfig);
    bool More = true;
    for (int Round = 0; More && Round < 64; ++Round)
      ASSERT_TRUE(Repl.pollOnce(More, Error)) << Error;
    ASSERT_FALSE(More);
    // Colliding random queries may be range-served on the source (no
    // new record), so the ground truth is the source's record count,
    // not the seed count.
    EXPECT_EQ(Repl.stats().Applied, SourceOpen.Store->stats().LiveRecords);
    EXPECT_EQ(Repl.stats().Corrupt, 0u);

    for (size_t I = 0; I < Seeded.size(); ++I) {
      const std::vector<float> &X = Seeded[I].first;
      uint32_t N = Seeded[I].second;
      Certificate Served;
      ASSERT_TRUE(ReplicaOpen.Store->lookup(V.fingerprint(), X.data(),
                                            Train.numFeatures(), N,
                                            Seeding, Served));
      const Certificate &Source = SourceCerts[I];
      EXPECT_EQ(Served.Kind, Source.Kind);
      EXPECT_EQ(Served.PoisoningBudget, Source.PoisoningBudget);
      EXPECT_EQ(Served.CertifiedRadius, Source.CertifiedRadius);
      EXPECT_EQ(Served.ConcretePrediction, Source.ConcretePrediction);
      EXPECT_EQ(Served.NumTerminals, Source.NumTerminals);
      EXPECT_EQ(Served.PeakDisjuncts, Source.PeakDisjuncts);
      EXPECT_EQ(Served.BestSplitCalls, Source.BestSplitCalls);
      EXPECT_EQ(Served.Seconds, Source.Seconds);
      if (Served.Kind != VerdictKind::Robust)
        continue;
      Certificate Reference = V.verify(X.data(), N, Fresh);
      if (!deterministic(Reference.Kind))
        continue;
      EXPECT_EQ(Reference.Kind, VerdictKind::Robust)
          << "unsound replica serve: trial " << Trial << " query " << I
          << " budget " << N;
    }
    Net.stop();
  }
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndThreats, ServingSoundnessProperty,
    ::testing::Values(
        ServingParam{AbstractDomainKind::Box, ThreatModelKind::Removal},
        ServingParam{AbstractDomainKind::Disjuncts, ThreatModelKind::Removal},
        ServingParam{AbstractDomainKind::DisjunctsCapped,
                     ThreatModelKind::Removal},
        // Flips run the one domain their transformers are sound under.
        ServingParam{AbstractDomainKind::Disjuncts,
                     ThreatModelKind::LabelFlip}));
