//===- tests/NetShedTests.cpp - Admission-control tests -----------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The admission-control half of the network tier: forced queue
// saturation sheds with an explicit SHED status (never a fabricated
// verdict), cache hits are still answered while shedding, pacing caps a
// greedy client without starving its neighbours, and a deadline storm
// drains as Timeouts with the server healthy afterwards. Saturation is
// produced deterministically by the GateStore (verifications pin inside
// the store write-through), never by sleeping and hoping.
//
//===----------------------------------------------------------------------===//

#include "serving/NetServer.h"

#include "serving/CertCache.h"
#include "serving/TieredStore.h"

#include "NetHarness.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

using namespace antidote;
using namespace antidote::testharness;
using namespace antidote::testutil;

namespace {

std::vector<float> point(float X) { return std::vector<float>{X}; }

template <typename Fn> bool eventually(Fn Cond, int TimeoutMillis = 30000) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMillis);
  while (!Cond()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Server stack with admission knobs under test control. One worker, so
/// a gated verification pins the only executor. The store is the
/// production composition with the persistent tier swapped for the
/// gate: a RAM cache in front (so warmed queries probe-serve while
/// shedding) and the GateStore behind it pinning write-throughs.
struct ShedStack {
  Dataset Train = figure2Dataset();
  GateStore Gate;
  CertCache Cache{/*MaxBytes=*/0};
  TieredStore Store{&Cache, &Gate};
  std::unique_ptr<CertServer> Server;
  std::unique_ptr<NetServer> Net;

  explicit ShedStack(NetServerConfig NetConfig) {
    CertServerConfig Config;
    Config.Query.Depth = 2;
    Config.Query.Domain = AbstractDomainKind::Disjuncts;
    Config.Query.Limits.TimeoutSeconds = 30.0;
    Config.Jobs = 1;
    Config.Store = &Store;
    Server = std::make_unique<CertServer>(Train, Config);
    NetConfig.Port = 0;
    Net = std::make_unique<NetServer>(*Server, NetConfig);
    std::string Error;
    if (!Net->start(Error))
      ADD_FAILURE() << "NetServer start: " << Error;
  }

  ~ShedStack() {
    Gate.open();
    Net->stop();
  }

  uint16_t port() const { return Net->port(); }
};

} // namespace

TEST(NetShedTest, SaturationShedsExplicitlyAndNeverFabricatesAVerdict) {
  NetServerConfig NetConfig;
  NetConfig.ShedDepth = 2;
  ShedStack Stack(NetConfig);

  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  // Pin the queue: with the gate closed, admitted verifications park in
  // the store write-through, so pendingRequests() can only grow.
  Stack.Gate.close();
  ASSERT_TRUE(Client.send(makeRequest(0, 2, point(20.0f))));
  ASSERT_TRUE(Stack.Gate.waitForEntered(1));
  ASSERT_TRUE(Client.send(makeRequest(1, 2, point(21.0f))));
  ASSERT_TRUE(eventually(
      [&] { return Stack.Server->pendingRequests() >= 2; }));

  // Past ShedDepth now; a burst of fresh queries must all be refused
  // explicitly — SHED/overload, no certificate attached.
  for (uint64_t I = 0; I < 4; ++I)
    ASSERT_TRUE(Client.send(makeRequest(10 + I, 2, point(30.0f + I))));
  for (int I = 0; I < 4; ++I) {
    NetResponse Response;
    ASSERT_TRUE(Client.recvResponse(Response));
    ASSERT_GE(Response.Tag, 10u) << "pinned request answered early?";
    EXPECT_EQ(Response.Status, NetStatus::Shed);
    EXPECT_EQ(Response.ShedReason, NetShedReason::Overload);
  }
  EXPECT_EQ(Stack.Net->stats().ShedOverload, 4u);

  // Release the gate: the two admitted requests complete with real
  // verdicts — shedding refused the new work, not the owed work.
  Stack.Gate.open();
  for (int I = 0; I < 2; ++I) {
    NetResponse Response;
    ASSERT_TRUE(Client.recvResponse(Response));
    EXPECT_LT(Response.Tag, 2u);
    EXPECT_EQ(Response.Status, NetStatus::Ok);
    EXPECT_EQ(Response.Path, NetServePath::Verified);
  }
}

TEST(NetShedTest, CacheHitsAreStillAnsweredWhileShedding) {
  NetServerConfig NetConfig;
  NetConfig.ShedDepth = 2;
  ShedStack Stack(NetConfig);

  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  // Warm the store with one query while the world is healthy.
  ASSERT_TRUE(Client.send(makeRequest(0, 2, point(9.5f))));
  NetResponse Warm;
  ASSERT_TRUE(Client.recvResponse(Warm));
  ASSERT_EQ(Warm.Status, NetStatus::Ok);

  // Saturate.
  Stack.Gate.close();
  ASSERT_TRUE(Client.send(makeRequest(1, 3, point(20.0f))));
  ASSERT_TRUE(Stack.Gate.waitForEntered(2)); // 1 warm + 1 pinned.
  ASSERT_TRUE(Client.send(makeRequest(2, 3, point(21.0f))));
  ASSERT_TRUE(eventually(
      [&] { return Stack.Server->pendingRequests() >= 2; }));

  // The warmed query again, while shedding: answered from the store —
  // Ok with the probe path marked — not shed, not re-verified.
  ASSERT_TRUE(Client.send(makeRequest(3, 2, point(9.5f))));
  NetResponse Hit;
  ASSERT_TRUE(Client.recvResponse(Hit));
  EXPECT_EQ(Hit.Tag, 3u);
  EXPECT_EQ(Hit.Status, NetStatus::Ok);
  EXPECT_EQ(Hit.Path, NetServePath::ShedProbe);
  EXPECT_EQ(Hit.Cert.Kind, Warm.Cert.Kind);
  EXPECT_EQ(Hit.Cert.ConcretePrediction, Warm.Cert.ConcretePrediction);
  EXPECT_GE(Stack.Net->stats().ProbeHits, 1u);

  // A cold query in the same breath is still refused.
  ASSERT_TRUE(Client.send(makeRequest(4, 2, point(40.0f))));
  NetResponse Cold;
  ASSERT_TRUE(Client.recvResponse(Cold));
  EXPECT_EQ(Cold.Status, NetStatus::Shed);

  Stack.Gate.open();
}

TEST(NetShedTest, PacingCapsAGreedyClientWithoutStarvingOthers) {
  NetServerConfig NetConfig;
  // Effectively no refill within the test's lifetime; a burst of 2.
  NetConfig.ClientRate = 0.0001;
  NetConfig.ClientBurst = 2.0;
  ShedStack Stack(NetConfig);

  NetClient Greedy(Stack.port());
  ASSERT_TRUE(Greedy.connected());
  for (uint64_t I = 0; I < 6; ++I)
    ASSERT_TRUE(Greedy.send(makeRequest(I, 2, point(20.0f + I))));

  size_t NumOk = 0, NumPaced = 0;
  for (int I = 0; I < 6; ++I) {
    NetResponse Response;
    ASSERT_TRUE(Greedy.recvResponse(Response));
    if (Response.Status == NetStatus::Ok) {
      ++NumOk;
      EXPECT_LT(Response.Tag, 2u) << "admissions must be the first two";
    } else {
      ++NumPaced;
      ASSERT_EQ(Response.Status, NetStatus::Shed);
      EXPECT_EQ(Response.ShedReason, NetShedReason::Paced);
    }
  }
  EXPECT_EQ(NumOk, 2u);
  EXPECT_EQ(NumPaced, 4u);
  EXPECT_EQ(Stack.Net->stats().ShedPaced, 4u);

  // A different client owns a fresh bucket: the greedy neighbour's
  // exhaustion is not its problem.
  NetClient Polite(Stack.port());
  ASSERT_TRUE(Polite.connected());
  for (uint64_t I = 0; I < 2; ++I) {
    ASSERT_TRUE(Polite.send(makeRequest(100 + I, 2, point(9.5f))));
    NetResponse Response;
    ASSERT_TRUE(Polite.recvResponse(Response));
    EXPECT_EQ(Response.Status, NetStatus::Ok);
  }
}

TEST(NetShedTest, PacedClientStillGetsCachedAnswers) {
  NetServerConfig NetConfig;
  NetConfig.ClientRate = 0.0001;
  NetConfig.ClientBurst = 1.0;
  ShedStack Stack(NetConfig);

  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  // The single token buys one verification...
  ASSERT_TRUE(Client.send(makeRequest(0, 2, point(9.5f))));
  NetResponse Warm;
  ASSERT_TRUE(Client.recvResponse(Warm));
  ASSERT_EQ(Warm.Status, NetStatus::Ok);
  ASSERT_EQ(Warm.Path, NetServePath::Verified);

  // ...after which the bucket is empty: repeats of the known query are
  // probe-served, anything new is shed as paced.
  ASSERT_TRUE(Client.send(makeRequest(1, 2, point(9.5f))));
  ASSERT_TRUE(Client.send(makeRequest(2, 2, point(20.0f))));
  NetResponse Repeat, Fresh;
  ASSERT_TRUE(Client.recvResponse(Repeat));
  ASSERT_TRUE(Client.recvResponse(Fresh));
  EXPECT_EQ(Repeat.Tag, 1u);
  EXPECT_EQ(Repeat.Status, NetStatus::Ok);
  EXPECT_EQ(Repeat.Path, NetServePath::ShedProbe);
  EXPECT_EQ(Repeat.Cert.Kind, Warm.Cert.Kind);
  EXPECT_EQ(Fresh.Tag, 2u);
  EXPECT_EQ(Fresh.Status, NetStatus::Shed);
  EXPECT_EQ(Fresh.ShedReason, NetShedReason::Paced);
}

TEST(NetShedTest, DeadlineStormDrainsAsTimeoutsAndServerStaysHealthy) {
  ShedStack Stack(NetServerConfig{});

  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  // One blocker pins the worker; five 30ms-deadline requests queue
  // behind it and all expire while it holds the gate.
  Stack.Gate.close();
  ASSERT_TRUE(Client.send(makeRequest(0, 3, point(20.0f))));
  ASSERT_TRUE(Stack.Gate.waitForEntered(1));
  for (uint64_t I = 0; I < 5; ++I)
    ASSERT_TRUE(Client.send(
        makeRequest(10 + I, 3, point(30.0f + I), /*DeadlineMillis=*/30)));
  ASSERT_TRUE(eventually(
      [&] { return Stack.Server->pendingRequests() >= 6; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Stack.Gate.open();

  size_t NumTimeouts = 0;
  for (int I = 0; I < 6; ++I) {
    NetResponse Response;
    ASSERT_TRUE(Client.recvResponse(Response));
    ASSERT_EQ(Response.Status, NetStatus::Ok);
    if (Response.Tag >= 10) {
      // Expired before a worker took it: an honest Timeout, no verification
      // spent on it, and emphatically not a Robust/Unknown claim.
      EXPECT_EQ(Response.Cert.Kind, VerdictKind::Timeout);
      ++NumTimeouts;
    }
  }
  EXPECT_EQ(NumTimeouts, 5u);

  // The storm leaves no debris: a normal query still round-trips.
  ASSERT_TRUE(Client.send(makeRequest(99, 2, point(9.5f))));
  NetResponse After;
  ASSERT_TRUE(Client.recvResponse(After));
  EXPECT_EQ(After.Status, NetStatus::Ok);
  EXPECT_EQ(After.Path, NetServePath::Verified);
  EXPECT_NE(After.Cert.Kind, VerdictKind::Timeout);
}
