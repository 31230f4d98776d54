//===- tests/ReplicatorTests.cpp - Pull-replication tests ---------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The replication pipeline end to end over a real socket: a replica
// pulls byte-identical certificates, replays are idempotent, a cursor
// whose segment retention evicted resumes at the next live segment with
// nothing lost, retention leaves a cursor in a surviving segment alone,
// and — the soundness half — a delta corrupted at *every* byte offset
// is skipped, never applied as a wrong certificate, and a cursor at
// *every* byte offset either names a record boundary or rewinds to the
// segment start. Torn poll frames (cut at every byte
// offset via tests/NetHarness) cost the source one connection, never
// the process.
//
//===----------------------------------------------------------------------===//

#include "serving/Replicator.h"

#include "NetHarness.h"
#include "TestUtil.h"
#include "serving/CertCache.h"
#include "serving/CertServer.h"
#include "serving/DiskCertStore.h"
#include "serving/NetServer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <dirent.h>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

class TempStoreDir {
public:
  TempStoreDir() {
    char Template[] = "/tmp/antidote-repl-test-XXXXXX";
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

VerifierConfig makeConfig() {
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Box;
  Config.Limits.TimeoutSeconds = 30.0;
  return Config;
}

std::unique_ptr<DiskCertStore> openOrDie(const std::string &Dir,
                                         const DiskCertStoreOptions &Options =
                                             {}) {
  DiskCertStore::OpenResult Opened = DiskCertStore::open(Dir, Options);
  EXPECT_TRUE(Opened.ok()) << Opened.Error;
  return std::move(Opened.Store);
}

void expectIdenticalCertificates(const Certificate &A, const Certificate &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.PoisoningBudget, B.PoisoningBudget);
  EXPECT_EQ(A.CertifiedRadius, B.CertifiedRadius);
  EXPECT_EQ(A.ConcretePrediction, B.ConcretePrediction);
  EXPECT_EQ(A.NumTerminals, B.NumTerminals);
  EXPECT_EQ(A.PeakDisjuncts, B.PeakDisjuncts);
  EXPECT_EQ(A.BestSplitCalls, B.BestSplitCalls);
  EXPECT_EQ(A.Seconds, B.Seconds);
}

/// The source side of every test: a disk store under a CertServer and a
/// NetServer, whose listen socket also answers replication polls.
struct SourceStack {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V{Train};
  std::unique_ptr<DiskCertStore> Disk;
  std::unique_ptr<CertServer> Server;
  std::unique_ptr<NetServer> Net;

  explicit SourceStack(const DiskCertStoreOptions &Options = {}) {
    Disk = openOrDie(Dir.path(), Options);
    CertServerConfig Config;
    Config.Query = makeConfig();
    Config.Jobs = 1;
    Config.Store = Disk.get();
    Server = std::make_unique<CertServer>(Train, Config);
    Net = std::make_unique<NetServer>(*Server, NetServerConfig());
    std::string Error;
    if (!Net->start(Error))
      ADD_FAILURE() << "NetServer start: " << Error;
  }

  ~SourceStack() { Net->stop(); }

  /// Verifies \p Q at budget 1 through the source store (write-through)
  /// and returns the certificate.
  Certificate seed(float Q) {
    VerifierConfig Config = makeConfig();
    Config.Cache = Disk.get();
    const float X[] = {Q};
    return V.verify(X, 1, Config);
  }

  uint16_t port() const { return Net->port(); }
};

/// Polls until the source reports the replica caught up (bounded).
void catchUp(Replicator &Repl) {
  bool More = true;
  std::string Error;
  for (int Round = 0; More && Round < 64; ++Round)
    ASSERT_TRUE(Repl.pollOnce(More, Error)) << Error;
  EXPECT_FALSE(More) << "never caught up";
}

} // namespace

TEST(ReplicatorTest, ReplicaPullsByteIdenticalCertificates) {
  SourceStack Source;
  std::vector<float> Queries = {1.5f, 9.5f, 12.5f};
  std::vector<Certificate> Seeded;
  for (float Q : Queries)
    Seeded.push_back(Source.seed(Q));

  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicatorConfig Config;
  Config.Port = Source.port();
  Replicator Repl(*Replica, Config);
  catchUp(Repl);

  ReplicatorStats Stats = Repl.stats();
  EXPECT_EQ(Stats.Applied, 3u);
  EXPECT_EQ(Stats.Duplicates, 0u);
  EXPECT_EQ(Stats.Corrupt, 0u);
  EXPECT_EQ(Stats.Errors, 0u);
  EXPECT_EQ(Replica->stats().LiveRecords, 3u);

  // Every replicated certificate is the source's, byte for byte —
  // Seconds included, because the record bytes crossed the wire
  // verbatim and the replica appended them unchanged.
  VerifierConfig Probe = makeConfig();
  for (size_t I = 0; I < Queries.size(); ++I) {
    const float X[] = {Queries[I]};
    Certificate Out;
    ASSERT_TRUE(Replica->lookup(Source.V.fingerprint(), X, 1, 1, Probe, Out));
    expectIdenticalCertificates(Seeded[I], Out);
  }
}

TEST(ReplicatorTest, ReplayedDeltasAreIdempotent) {
  SourceStack Source;
  for (float Q : {1.5f, 9.5f})
    Source.seed(Q);

  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicatorConfig Config;
  Config.Port = Source.port();
  {
    Replicator First(*Replica, Config);
    catchUp(First);
    EXPECT_EQ(First.stats().Applied, 2u);
  }

  // A second puller with a fresh cursor replays every segment; the
  // duplicate-decline path absorbs every record, and the replica's
  // contents do not change.
  uint64_t RecordsBefore = Replica->stats().LiveRecords;
  Replicator Again(*Replica, Config);
  catchUp(Again);
  ReplicatorStats Stats = Again.stats();
  EXPECT_EQ(Stats.Applied, 0u);
  EXPECT_EQ(Stats.Duplicates, 2u);
  EXPECT_EQ(Stats.Corrupt, 0u);
  EXPECT_EQ(Replica->stats().LiveRecords, RecordsBefore);
}

TEST(ReplicatorTest, EvictedCursorSegmentResumesAtTheNextLiveOne) {
  // One record per segment (a record plus the segment header is ~152
  // bytes), room for two segments in the byte budget.
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 160;
  Options.RetentionBytes = 320;
  SourceStack Source(Options);
  std::vector<float> Queries = {1.5f, 4.5f, 9.5f};
  std::vector<Certificate> Seeded;
  Seeded.push_back(Source.seed(Queries[0]));

  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicatorConfig Config;
  Config.Port = Source.port();
  Replicator Repl(*Replica, Config);
  catchUp(Repl);
  ASSERT_EQ(Repl.stats().Applied, 1u);

  // The cursor sits at the end of segment 1. Two more segments push the
  // directory over budget, and retention evicts segment 1 — the cursor's
  // — while segments 2 and 3 stay live.
  Seeded.push_back(Source.seed(Queries[1]));
  Seeded.push_back(Source.seed(Queries[2]));
  ASSERT_EQ(Source.Disk->stats().RetentionEvictedSegments, 1u);
  ASSERT_EQ(Source.Disk->stats().Segments, 2u);

  // The cursor resumes at the first record of segment 2: both new
  // records apply, nothing replays, nothing is lost.
  catchUp(Repl);
  ReplicatorStats Stats = Repl.stats();
  EXPECT_EQ(Stats.Applied, 3u);
  EXPECT_EQ(Stats.Duplicates, 0u);
  EXPECT_EQ(Stats.Corrupt, 0u);
  EXPECT_EQ(Replica->stats().LiveRecords, 3u);
  VerifierConfig Probe = makeConfig();
  for (size_t I = 0; I < Queries.size(); ++I) {
    const float X[] = {Queries[I]};
    Certificate Out;
    ASSERT_TRUE(Replica->lookup(Source.V.fingerprint(), X, 1, 1, Probe, Out));
    expectIdenticalCertificates(Seeded[I], Out);
  }
}

TEST(ReplicatorTest, RetentionLeavesACursorInASurvivingSegmentAlone) {
  // One record per segment (a record plus the segment header is ~152
  // bytes), room for two segments in the byte budget.
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 160;
  Options.RetentionBytes = 320;
  SourceStack Source(Options);
  Source.seed(1.5f);
  Source.seed(4.5f);

  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicatorConfig Config;
  Config.Port = Source.port();
  Replicator Repl(*Replica, Config);
  catchUp(Repl);
  ASSERT_EQ(Repl.stats().Applied, 2u);

  // The third record opens a third segment and pushes the directory
  // over budget: the oldest segment is evicted. The replica's cursor
  // sits at the end of the second, which survives.
  Source.seed(9.5f);
  ASSERT_EQ(Source.Disk->stats().RetentionEvictedSegments, 1u);

  // Only the new record crosses the wire — nothing is replayed.
  catchUp(Repl);
  ReplicatorStats Stats = Repl.stats();
  EXPECT_EQ(Stats.Applied, 3u);
  EXPECT_EQ(Stats.Duplicates, 0u);
  EXPECT_EQ(Stats.Corrupt, 0u);
  EXPECT_EQ(Replica->stats().LiveRecords, 3u);
}

TEST(ReplicatorTest, CorruptDeltaRecordsAreSkippedAtEveryByteOffset) {
  // The apply path's soundness, with no network in the way: take one
  // record's exact wire bytes, corrupt each byte in turn (and tear the
  // record at every length), and feed it to a fresh replica store. The
  // checksum/parse validation must reject every mutant — a corrupt
  // delta degrades to a skip, never to a wrong certificate.
  SourceStack Source;
  Source.seed(9.5f);

  // A fresh cursor starts at the oldest segment's first record.
  ReplicationEndpoint::PollRequest Poll;
  ReplicationEndpoint::Delta Delta =
      Source.Disk->replication()->serveReplicationPoll(Poll);
  ASSERT_EQ(Delta.Status, ReplicationEndpoint::PollStatus::Delta);
  ASSERT_TRUE(Delta.AtHead);
  ASSERT_EQ(Delta.Records.size(), 1u);
  const std::vector<uint8_t> &Record = Delta.Records[0];

  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicationEndpoint *End = Replica->replication();
  ASSERT_NE(End, nullptr);

  for (size_t I = 0; I < Record.size(); ++I) {
    std::vector<uint8_t> Mutant = Record;
    Mutant[I] ^= 0xFF;
    EXPECT_EQ(End->applyReplicatedRecord(Mutant.data(), Mutant.size()),
              ReplicationEndpoint::ApplyResult::Corrupt)
        << "flipped byte " << I;
  }
  for (size_t Len = 0; Len < Record.size(); ++Len)
    EXPECT_EQ(End->applyReplicatedRecord(Record.data(), Len),
              ReplicationEndpoint::ApplyResult::Corrupt)
        << "torn at " << Len;
  EXPECT_EQ(Replica->stats().LiveRecords, 0u);

  // The intact bytes still apply — the storm above rejected mutants,
  // not the record — and a replay of them is a duplicate.
  EXPECT_EQ(End->applyReplicatedRecord(Record.data(), Record.size()),
            ReplicationEndpoint::ApplyResult::Applied);
  EXPECT_EQ(End->applyReplicatedRecord(Record.data(), Record.size()),
            ReplicationEndpoint::ApplyResult::Duplicate);
  EXPECT_EQ(Replica->stats().LiveRecords, 1u);
}

TEST(ReplicatorTest, CursorOffARecordBoundaryRewindsToTheSegmentStart) {
  // A cursor names a record boundary the source handed out; anything
  // else — past EOF, mid-header, mid-payload, a segment that never
  // existed — must restart at a segment's first record, never parse
  // from a byte a record walk did not reach. Try every byte offset of
  // the segment and a few past its end.
  SourceStack Source;
  for (float Q : {1.5f, 9.5f, 12.5f})
    Source.seed(Q);
  ReplicationEndpoint *Endpoint = Source.Disk->replication();
  ReplicationEndpoint::PollRequest Poll;
  ReplicationEndpoint::Delta All = Endpoint->serveReplicationPoll(Poll);
  ASSERT_EQ(All.Records.size(), 3u);
  ASSERT_TRUE(All.AtHead);
  // The segment is its 8-byte header plus these records, back to back.
  std::vector<uint64_t> Boundaries = {8};
  for (const std::vector<uint8_t> &Record : All.Records)
    Boundaries.push_back(Boundaries.back() + Record.size());
  ASSERT_EQ(All.Offset, Boundaries.back());

  for (uint64_t Offset = 0; Offset < Boundaries.back() + 64; ++Offset) {
    Poll.Segment = All.Segment;
    Poll.Offset = Offset;
    ReplicationEndpoint::Delta D = Endpoint->serveReplicationPoll(Poll);
    ASSERT_EQ(D.Status, ReplicationEndpoint::PollStatus::Delta);
    EXPECT_TRUE(D.AtHead) << "offset " << Offset;
    EXPECT_EQ(D.Segment, All.Segment);
    EXPECT_EQ(D.Offset, Boundaries.back());
    // On a boundary: exactly the records after it. Off one: all of
    // them, from the segment start — byte-identical either way.
    size_t First = 0;
    auto B = std::find(Boundaries.begin(), Boundaries.end(), Offset);
    if (B != Boundaries.end())
      First = static_cast<size_t>(B - Boundaries.begin());
    std::vector<std::vector<uint8_t>> Expected(All.Records.begin() + First,
                                               All.Records.end());
    EXPECT_EQ(D.Records, Expected) << "offset " << Offset;
  }

  // A segment id the source never had, past every live one: resume at
  // the oldest.
  Poll.Segment = All.Segment + 7;
  Poll.Offset = Boundaries[1];
  EXPECT_EQ(Endpoint->serveReplicationPoll(Poll).Records, All.Records);
}

TEST(ReplicatorTest, TornPollFramesCostOneConnectionNeverTheSource) {
  SourceStack Source;
  Source.seed(9.5f);

  ReplicationEndpoint::PollRequest Poll;
  std::string Frame = encodeReplicationPollFrame(Poll);

  // Every proper prefix of a poll frame, then a hangup: the source must
  // treat each as one lost connection and keep serving.
  for (size_t Len = 0; Len < Frame.size(); ++Len) {
    testharness::NetClient Client(Source.port());
    ASSERT_TRUE(Client.connected()) << "torn at " << Len;
    if (Len > 0) {
      ASSERT_TRUE(Client.sendRaw(Frame.data(), Len));
    }
    Client.close();
  }

  // And garbage with a poll-like length: a framing error, one closed
  // connection, process alive.
  {
    testharness::NetClient Client(Source.port());
    ASSERT_TRUE(Client.connected());
    std::vector<uint8_t> Garbage(Frame.size(), 0x5A);
    ASSERT_TRUE(Client.sendRaw(Garbage.data(), Garbage.size()));
    ASSERT_TRUE(Client.waitForClose());
  }

  // The storm over, a real replica still syncs.
  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicatorConfig Config;
  Config.Port = Source.port();
  Replicator Repl(*Replica, Config);
  catchUp(Repl);
  EXPECT_EQ(Repl.stats().Applied, 1u);
  EXPECT_GE(Source.Net->stats().ReplicationPolls, 1u);
}

TEST(ReplicatorTest, BackgroundThreadReplicatesAndStopsPromptly) {
  SourceStack Source;
  Source.seed(1.5f);
  Source.seed(9.5f);

  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicatorConfig Config;
  Config.Port = Source.port();
  Config.IntervalSeconds = 0.01;
  Replicator Repl(*Replica, Config);
  std::string Error;
  ASSERT_TRUE(Repl.start(Error)) << Error;

  // The background loop catches up on its own; poll the stats rather
  // than sleeping a fixed amount.
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Repl.stats().Applied < 2 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Repl.stats().Applied, 2u);
  Repl.stop();
  Repl.stop(); // Idempotent.
  EXPECT_EQ(Replica->stats().LiveRecords, 2u);
}

TEST(ReplicatorTest, StartRefusesAStoreWithoutAReplicationEndpoint) {
  // A RAM cache cannot apply raw segment records; wiring a replicator
  // to one must fail loudly at start, not silently no-op.
  CertCache Ram(/*MaxBytes=*/0);
  ReplicatorConfig Config;
  Config.Port = 1; // Never dialed: start fails before connecting.
  Replicator Repl(Ram, Config);
  std::string Error;
  EXPECT_FALSE(Repl.start(Error));
  EXPECT_FALSE(Error.empty());
}
