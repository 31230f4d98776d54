//===- tests/DiskCertStoreTests.cpp - Disk certificate store tests ------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The persistence tier's core promises: a fresh process pointed at a warm
// store directory answers a previously-verified query from disk,
// byte-identical to the fresh verdict; a torn or corrupt record is
// *never served* (the crash-consistency test truncates a store at every
// byte offset and reopens it — the ASan CI job runs this too); format
// bumps invalidate old segments wholesale and open unlinks them, along
// with closed segments that serve nothing, without losing live records;
// one process owns a directory until its handle goes (or the process
// dies); and the two-tier composition promotes disk hits into RAM.
//
//===----------------------------------------------------------------------===//

#include "serving/DiskCertStore.h"

#include "TestUtil.h"
#include "serving/CertCache.h"
#include "serving/TieredStore.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

/// A fresh store directory per test, recursively removed on teardown
/// (store directories are flat: LOCK + segments).
class TempStoreDir {
public:
  TempStoreDir() {
    char Template[] = "/tmp/antidote-store-test-XXXXXX";
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
  std::string sub(const std::string &Name) const { return Dir + "/" + Name; }

private:
  std::string Dir;
};

/// Field-by-field certificate identity, `Seconds` included: a disk hit
/// returns the stored certificate verbatim.
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

std::unique_ptr<DiskCertStore> openOrDie(const std::string &Dir,
                                         const DiskCertStoreOptions &Options =
                                             {}) {
  DiskCertStore::OpenResult Opened = DiskCertStore::open(Dir, Options);
  EXPECT_TRUE(Opened.ok()) << Opened.Error;
  return std::move(Opened.Store);
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Record boundaries of one segment, parsed with format knowledge the
/// corruption tests need: each element is the offset of a record start;
/// the first record starts right after the 8-byte segment header.
struct RecordSpan {
  size_t Offset = 0; ///< Of the 16-byte record header.
  size_t Bytes = 0;  ///< Header + payload.
};

std::vector<RecordSpan> parseRecordSpans(const std::vector<uint8_t> &Segment) {
  std::vector<RecordSpan> Spans;
  size_t Offset = 8;
  while (Offset + 16 <= Segment.size()) {
    uint32_t PayloadBytes = 0;
    for (int I = 0; I < 4; ++I)
      PayloadBytes |= static_cast<uint32_t>(Segment[Offset + 4 + I])
                      << (8 * I);
    RecordSpan Span;
    Span.Offset = Offset;
    Span.Bytes = 16 + PayloadBytes;
    EXPECT_LE(Offset + Span.Bytes, Segment.size());
    Spans.push_back(Span);
    Offset += Span.Bytes;
  }
  EXPECT_EQ(Offset, Segment.size());
  return Spans;
}

} // namespace

//===----------------------------------------------------------------------===//
// Warm restart: cached ≡ fresh, across all three abstract domains
//===----------------------------------------------------------------------===//

class DiskStoreRestartTest
    : public ::testing::TestWithParam<AbstractDomainKind> {};

TEST_P(DiskStoreRestartTest, FreshProcessAnswersFromWarmDirByteIdentical) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  VerifierConfig Config = makeConfig(GetParam());
  const float X[] = {9.5f};

  Certificate Cold;
  {
    // "Process one": verify against a cold store, then shut down.
    Verifier V(Train);
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    Config.Cache = Store.get();
    Cold = V.verify(X, /*PoisoningBudget=*/2, Config);
    StoreStats Stats = Store->stats();
    EXPECT_EQ(Stats.Misses, 1u);
    EXPECT_EQ(Stats.Stores, 1u);
  }

  // "Process two": a fresh Verifier and a fresh store handle on the
  // same directory. The first query must be served from disk, verbatim —
  // `Seconds` included, which a re-verification could never reproduce.
  Verifier V(Train);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 1u);
  Config.Cache = Store.get();
  Certificate Warm = V.verify(X, /*PoisoningBudget=*/2, Config);
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 0u);
  expectIdenticalCertificates(Cold, Warm);

  // And identical (Seconds aside) to a store-less verification: serving
  // from disk never changes an answer.
  VerifierConfig Fresh = makeConfig(GetParam());
  Certificate Reverified = V.verify(X, /*PoisoningBudget=*/2, Fresh);
  EXPECT_EQ(Warm.Kind, Reverified.Kind);
  EXPECT_EQ(Warm.ConcretePrediction, Reverified.ConcretePrediction);
  EXPECT_EQ(Warm.DominatingClass, Reverified.DominatingClass);
  EXPECT_EQ(Warm.NumTerminals, Reverified.NumTerminals);
  EXPECT_EQ(Warm.PeakDisjuncts, Reverified.PeakDisjuncts);
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DiskStoreRestartTest,
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
// Key discipline and verdict discipline
//===----------------------------------------------------------------------===//

TEST(DiskCertStoreTest, DatasetMutationMissesViaFingerprint) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Dataset Mutated = figure2Dataset();
  Mutated.addRow({5.0f}, 1);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cache = Store.get();
  const float X[] = {9.5f};

  Verifier V(Train);
  V.verify(X, 2, Config);

  Verifier VMutated(Mutated);
  ASSERT_NE(V.fingerprint(), VMutated.fingerprint());
  VMutated.verify(X, 2, Config);

  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.LiveRecords, 2u);
}

TEST(DiskCertStoreTest, NonDeterministicVerdictsAreNeverPersisted) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  const float X[] = {9.5f};

  // Defense in depth: even a store() call that bypasses Verifier's own
  // filter must decline a wall-clock-dependent verdict.
  Certificate TimedOut;
  TimedOut.Kind = VerdictKind::Timeout;
  Store->store(V.fingerprint(), X, 1, 2, Config, TimedOut);
  Certificate Cancelled;
  Cancelled.Kind = VerdictKind::Cancelled;
  Store->store(V.fingerprint(), X, 1, 2, Config, Cancelled);

  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Declined, 2u);
  EXPECT_EQ(Stats.Stores, 0u);
  EXPECT_EQ(Stats.LiveRecords, 0u);
}

TEST(DiskCertStoreTest, DuplicateStoreIsDeclinedNotAppended) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  const float X[] = {9.5f};
  Certificate Cold = V.verify(X, 2, Config);

  // A second offer for the same key (certificates are interchangeable)
  // must not grow the segment.
  Store->store(V.fingerprint(), X, 1, 2, Config, Cold);
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(Stats.DuplicatesDeclined, 1u);
  EXPECT_EQ(Stats.LiveRecords, 1u);
}

//===----------------------------------------------------------------------===//
// Corruption tolerance
//===----------------------------------------------------------------------===//

namespace {

/// Seeds a store with one Box certificate per query in \p Queries and
/// returns the store-less reference certificates (index-aligned).
std::vector<Certificate> seedStore(const std::string &Dir, Verifier &V,
                                   const std::vector<float> &Queries,
                                   const DiskCertStoreOptions &Options = {}) {
  std::vector<Certificate> Expected;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir, Options);
  Config.Cache = Store.get();
  for (float Q : Queries) {
    const float X[] = {Q};
    Expected.push_back(V.verify(X, /*PoisoningBudget=*/1, Config));
  }
  EXPECT_EQ(Store->stats().Stores, Queries.size());
  return Expected;
}

} // namespace

TEST(DiskCertStoreTest, ForeignNonDeterministicRecordIsNotServedBack) {
  // The write-side filter has a read-side twin: a record that *claims*
  // a Timeout verdict but carries a valid checksum (appended by buggy
  // or foreign tooling into a shared directory) must be dropped on
  // open, never served — a cached Timeout could contradict a fresh run.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Dir.path(), V, {9.5f});

  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), 1u);
  // Payload layout: 64 bytes of fixed key fields (threat byte included)
  // + one 4-byte query float, then the certificate starting with its
  // Kind byte.
  size_t PayloadOffset = Spans[0].Offset + 16;
  size_t KindOffset = PayloadOffset + 64 + 4;
  ASSERT_LT(KindOffset, Bytes.size());
  Bytes[KindOffset] = 2; // VerdictKind::Timeout.
  // Re-checksum (FNV-1a 64) so the record looks structurally intact.
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = PayloadOffset; I < Spans[0].Offset + Spans[0].Bytes; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ull;
  }
  for (int I = 0; I < 8; ++I)
    Bytes[Spans[0].Offset + 8 + I] = static_cast<uint8_t>(H >> (8 * I));
  writeFileBytes(Segment, Bytes);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 0u);
  EXPECT_EQ(Store->stats().CorruptSkipped, 1u);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Certificate Out;
  const float X[] = {9.5f};
  EXPECT_FALSE(Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
}

TEST(DiskCertStoreTest, CorruptRecordIsSkippedOthersIntact) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::vector<float> Queries = {1.5f, 9.5f, 12.5f};
  std::vector<Certificate> Expected = seedStore(Dir.path(), V, Queries);

  // Flip one byte inside the *middle* record's payload.
  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), 3u);
  Bytes[Spans[1].Offset + 16 + 5] ^= 0xFF;
  writeFileBytes(Segment, Bytes);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.CorruptSkipped, 1u);
  EXPECT_EQ(Stats.LiveRecords, 2u);

  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  // Records 0 and 2 still hit, byte-identical; the corrupted one misses
  // (and re-verifies rather than serving garbage).
  const float X0[] = {Queries[0]}, X1[] = {Queries[1]}, X2[] = {Queries[2]};
  expectIdenticalCertificates(Expected[0], V.verify(X0, 1, Config));
  expectIdenticalCertificates(Expected[2], V.verify(X2, 1, Config));
  EXPECT_EQ(Store->stats().Hits, 2u);
  Certificate Reverified = V.verify(X1, 1, Config);
  EXPECT_EQ(Store->stats().Misses, 1u);
  EXPECT_EQ(Reverified.Kind, Expected[1].Kind);
}

// The ISSUE's crash-consistency gate (the ASan matrix job runs this
// too): truncate the segment at *every* byte offset — simulating a
// crash mid-append at any point — and assert reopen never returns a
// wrong certificate: records wholly before the cut still hit verbatim,
// everything after it misses, and nothing crashes or leaks.
TEST(DiskCertStoreTest, TruncationAtEveryOffsetNeverServesWrongCertificate) {
  TempStoreDir SeedDir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::vector<float> Queries = {1.5f, 3.5f, 9.5f, 12.5f};
  std::vector<Certificate> Expected = seedStore(SeedDir.path(), V, Queries);

  std::vector<uint8_t> Bytes =
      readFileBytes(SeedDir.sub("seg-000001.antcert"));
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), Queries.size());

  VerifierConfig Probe = makeConfig(AbstractDomainKind::Box);
  for (size_t Cut = 0; Cut <= Bytes.size(); ++Cut) {
    TempStoreDir Dir;
    writeFileBytes(Dir.sub("seg-000001.antcert"),
                   std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + Cut));
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    ASSERT_NE(Store, nullptr) << "cut at " << Cut;
    for (size_t I = 0; I < Queries.size(); ++I) {
      const float X[] = {Queries[I]};
      Certificate Out;
      bool Hit = Store->lookup(V.fingerprint(), X, 1, /*PoisoningBudget=*/1,
                               Probe, Out);
      bool WholeRecordSurvived = Spans[I].Offset + Spans[I].Bytes <= Cut;
      EXPECT_EQ(Hit, WholeRecordSurvived)
          << "cut at " << Cut << ", record " << I;
      if (Hit)
        expectIdenticalCertificates(Expected[I], Out);
    }
  }
}

TEST(DiskCertStoreTest, PostOpenCorruptionDegradesToMissNotWrongCert) {
  // `lookup` re-reads the payload from disk on every hit, so corruption
  // that lands *after* the open-time scan — in the certificate bytes,
  // where the full-key compare cannot see it — must still be caught by
  // the checksum kept in the index and degrade to a miss.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Dir.path(), V, {9.5f});

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 1u);

  // Flip a byte in the certificate region (past the 64-byte fixed key
  // fields + one 4-byte query float) while the store handle is live.
  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), 1u);
  size_t CertByte = Spans[0].Offset + 16 + 64 + 4 + 2;
  ASSERT_LT(CertByte, Bytes.size());
  Bytes[CertByte] ^= 0xFF;
  writeFileBytes(Segment, Bytes);

  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Certificate Out;
  const float X[] = {9.5f};
  EXPECT_FALSE(Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
  EXPECT_GE(Store->stats().CorruptSkipped, 1u);
  EXPECT_EQ(Store->stats().Hits, 0u);
}

TEST(DiskCertStoreTest, TornTailIsRepairedAndAppendsStayReachable) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::vector<float> Queries = {1.5f, 9.5f};
  std::vector<Certificate> Expected = seedStore(Dir.path(), V, Queries);

  // Tear the last record in half — a crash mid-append.
  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  size_t Cut = Spans[1].Offset + Spans[1].Bytes / 2;
  writeFileBytes(Segment,
                 std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + Cut));

  // Reopen repairs the tail, then a new append lands after the repair
  // and must be reachable by the *next* open (a scan stops at the first
  // bad boundary, so appending after garbage would strand it).
  {
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    EXPECT_EQ(Store->stats().LiveRecords, 1u);
    EXPECT_GE(Store->stats().CorruptSkipped, 1u);
    VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
    Config.Cache = Store.get();
    const float X[] = {12.5f};
    V.verify(X, 1, Config);
    EXPECT_EQ(Store->stats().Stores, 1u);
  }
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 2u);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  const float X0[] = {1.5f}, X2[] = {12.5f};
  expectIdenticalCertificates(Expected[0], V.verify(X0, 1, Config));
  V.verify(X2, 1, Config);
  EXPECT_EQ(Store->stats().Hits, 2u);
}

//===----------------------------------------------------------------------===//
// Versioning, the open-time sweep, rotation
//===----------------------------------------------------------------------===//

TEST(DiskCertStoreTest, FormatVersionBumpInvalidatesWholeSegment) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  // One record per segment, so the stale segment below is the newest of
  // three and the two older ones stay live.
  DiskCertStoreOptions Tiny;
  Tiny.MaxSegmentBytes = 1;
  std::vector<float> Queries = {1.5f, 9.5f, 12.5f};
  seedStore(Dir.path(), V, Queries, Tiny);

  // Rewrite the newest segment header's version field: simulates records
  // laid down by a future (or past) format.
  std::string Segment = Dir.sub("seg-000003.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  Bytes[4] = static_cast<uint8_t>(DiskCertStore::FormatVersion + 1);
  writeFileBytes(Segment, Bytes);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.StaleSegments, 1u);
  EXPECT_EQ(Stats.LiveRecords, 2u);
  EXPECT_EQ(Stats.Segments, 2u);
  struct stat St;
  EXPECT_NE(::stat(Segment.c_str(), &St), 0); // Unlinked by the open.

  // Nothing of the stale segment is indexed: its query misses. The
  // re-verified record must route to a fresh segment, never reuse the
  // stale one's id, and the next open must see it.
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  const float X[] = {Queries[2]};
  Certificate Cold = V.verify(X, 1, Config);
  EXPECT_EQ(Store->stats().Misses, 1u);
  EXPECT_EQ(Store->stats().Stores, 1u);
  EXPECT_NE(::stat(Segment.c_str(), &St), 0);
  EXPECT_EQ(::stat(Dir.sub("seg-000004.antcert").c_str(), &St), 0);
  Store.reset();

  Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().StaleSegments, 0u);
  EXPECT_EQ(Store->stats().LiveRecords, 3u);
  Config.Cache = Store.get();
  Certificate Warm = V.verify(X, 1, Config);
  EXPECT_EQ(Store->stats().Hits, 1u);
  expectIdenticalCertificates(Cold, Warm);
}

TEST(DiskCertStoreTest, OpenUnlinksStaleSegments) {
  // A format bump's segments are reclaimed by the very next open: the
  // scan that rejects a header unlinks its file.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Dir.path(), V, {1.5f, 9.5f});

  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  Bytes[4] = static_cast<uint8_t>(DiskCertStore::FormatVersion + 1);
  writeFileBytes(Segment, Bytes);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.StaleSegments, 1u);
  EXPECT_EQ(Stats.LiveRecords, 0u);
  struct stat St;
  EXPECT_NE(::stat(Segment.c_str(), &St), 0); // Stale file reclaimed.

  // Nothing stale is left for the next open to skip.
  Store.reset();
  Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().StaleSegments, 0u);
}

TEST(DiskCertStoreTest, UnopenableSegmentIsLeftForTheNextOpen) {
  // Only a header the scan read and rejected proves a segment stale. One
  // it could not open (here a dangling symlink) may be a transient
  // failure, so it is skipped, not unlinked.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::vector<Certificate> Expected = seedStore(Dir.path(), V, {9.5f});
  std::string Dangling = Dir.sub("seg-000000.antcert");
  ASSERT_EQ(::symlink(Dir.sub("missing").c_str(), Dangling.c_str()), 0);

  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  for (int Open = 0; Open < 2; ++Open) {
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    EXPECT_EQ(Store->stats().StaleSegments, 1u);
    EXPECT_EQ(Store->stats().LiveRecords, 1u);
    struct stat St;
    EXPECT_EQ(::lstat(Dangling.c_str(), &St), 0) << "open " << Open;
    const float X[] = {9.5f};
    Certificate Out;
    ASSERT_TRUE(Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
    expectIdenticalCertificates(Expected[0], Out);
  }
}

TEST(DiskCertStoreTest, OpenUnlinksClosedSegmentsWithNoIndexedRecord) {
  // One record per segment, and the records of the two oldest corrupted:
  // those closed segments can never serve again and go at open. The
  // newest segment — the one appends continue — is kept even when it
  // serves nothing, and the survivors serve byte-identically.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  DiskCertStoreOptions Tiny;
  Tiny.MaxSegmentBytes = 1;
  std::vector<float> Queries = {1.5f, 4.5f, 9.5f, 12.5f};
  std::vector<Certificate> Expected = seedStore(Dir.path(), V, Queries, Tiny);
  for (const char *Id : {"1", "2", "4"}) {
    std::string Segment = Dir.sub(std::string("seg-00000") + Id + ".antcert");
    std::vector<uint8_t> Bytes = readFileBytes(Segment);
    std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
    ASSERT_EQ(Spans.size(), 1u);
    Bytes[Spans[0].Offset + 16 + 5] ^= 0xFF;
    writeFileBytes(Segment, Bytes);
  }

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.CorruptSkipped, 3u);
  EXPECT_EQ(Stats.StaleSegments, 0u);
  EXPECT_EQ(Stats.LiveRecords, 1u);
  EXPECT_EQ(Stats.Segments, 2u);
  struct stat St;
  EXPECT_NE(::stat(Dir.sub("seg-000001.antcert").c_str(), &St), 0);
  EXPECT_NE(::stat(Dir.sub("seg-000002.antcert").c_str(), &St), 0);
  EXPECT_EQ(::stat(Dir.sub("seg-000003.antcert").c_str(), &St), 0);
  EXPECT_EQ(::stat(Dir.sub("seg-000004.antcert").c_str(), &St), 0);

  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X2[] = {Queries[2]};
  Certificate Out;
  ASSERT_TRUE(Store->lookup(V.fingerprint(), X2, 1, 1, Config, Out));
  expectIdenticalCertificates(Expected[2], Out);

  // A cold reopen finds the same survivors and nothing more to unlink.
  Store.reset();
  Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 1u);
  EXPECT_EQ(Store->stats().Segments, 2u);
  EXPECT_EQ(Store->stats().CorruptSkipped, 1u);
  ASSERT_TRUE(Store->lookup(V.fingerprint(), X2, 1, 1, Config, Out));
  expectIdenticalCertificates(Expected[2], Out);
}

TEST(DiskCertStoreTest, PlantedDuplicateIsIndexedOnce) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X[] = {9.5f}, Y[] = {1.5f};

  // The owning handle never appends a duplicate (it declines keys it
  // has indexed), so plant one at the byte level: a valid, checksummed
  // copy of the first record, appended after the second.
  std::unique_ptr<DiskCertStore> A = openOrDie(Dir.path());
  Config.Cache = A.get();
  Certificate Cold = V.verify(X, 1, Config);
  V.verify(Y, 1, Config);
  A.reset();
  {
    std::string Segment = Dir.sub("seg-000001.antcert");
    std::vector<uint8_t> Bytes = readFileBytes(Segment);
    std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
    ASSERT_EQ(Spans.size(), 2u);
    std::vector<uint8_t> Copy(Bytes.begin() + Spans[0].Offset,
                              Bytes.begin() + Spans[0].Offset +
                                  Spans[0].Bytes);
    Bytes.insert(Bytes.end(), Copy.begin(), Copy.end());
    writeFileBytes(Segment, Bytes);
  }

  // The first copy wins; the second occupies file bytes but is neither
  // indexed nor counted live.
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.DuplicateRecords, 1u);
  EXPECT_EQ(Stats.LiveRecords, 2u);
  EXPECT_EQ(Stats.CorruptSkipped, 0u);
  Config.Cache = Store.get();
  expectIdenticalCertificates(Cold, V.verify(X, 1, Config));
  EXPECT_EQ(Store->stats().Hits, 1u);
  EXPECT_EQ(Store->stats().Stores, 0u);

  // Still the first copy, byte-identical, after a reopen.
  Store.reset();
  Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().DuplicateRecords, 1u);
  EXPECT_EQ(Store->stats().LiveRecords, 2u);
  Config.Cache = Store.get();
  expectIdenticalCertificates(Cold, V.verify(X, 1, Config));
}

TEST(DiskCertStoreTest, SegmentsRotateUnderMaxSegmentBytes) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 1; // Every record rotates to a new segment.
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), Options);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  for (float Q : {1.5f, 9.5f, 12.5f}) {
    const float X[] = {Q};
    V.verify(X, 1, Config);
  }
  EXPECT_EQ(Store->stats().Segments, 3u);
  EXPECT_EQ(Store->stats().LiveRecords, 3u);

  // A reopen sees all segments and serves from the older ones.
  Store.reset();
  Store = openOrDie(Dir.path(), Options);
  EXPECT_EQ(Store->stats().Segments, 3u);
  EXPECT_EQ(Store->stats().LiveRecords, 3u);
  Config.Cache = Store.get();
  const float X[] = {9.5f};
  V.verify(X, 1, Config);
  EXPECT_EQ(Store->stats().Hits, 1u);
}

TEST(DiskCertStoreTest, FailedAppendIsCountedAsDeclined) {
  // A store that stops persisting must show it: the second append needs
  // a new segment, and a directory squats on that segment's name.
  TempStoreDir Dir;
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 1;
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), Options);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP;
  FP.Hi = 0x1234;
  FP.Lo = 0x5678;
  Certificate Cert;
  Cert.Kind = VerdictKind::Robust;
  Cert.PoisoningBudget = 1;
  Cert.CertifiedRadius = 1;
  const float X[] = {1.0f}, Y[] = {2.0f};
  Store->store(FP, X, 1, 1, Config, Cert);
  ASSERT_EQ(::mkdir(Dir.sub("seg-000002.antcert").c_str(), 0755), 0);
  Store->store(FP, Y, 1, 1, Config, Cert);
  ::rmdir(Dir.sub("seg-000002.antcert").c_str());

  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(Stats.Declined, 1u);
  EXPECT_EQ(Stats.LiveRecords, 1u);
  EXPECT_NE(Stats.summary().find("declined=1 "), std::string::npos)
      << Stats.summary();
  Certificate Out;
  EXPECT_TRUE(Store->lookup(FP, X, 1, 1, Config, Out));
  EXPECT_FALSE(Store->lookup(FP, Y, 1, 1, Config, Out));
}

TEST(DiskCertStoreTest, UnwritableDirectoryFailsOpenWithClearError) {
  DiskCertStore::OpenResult Opened =
      DiskCertStore::open("/proc/antidote-definitely-not-writable/store");
  EXPECT_FALSE(Opened.ok());
  EXPECT_FALSE(Opened.Error.empty());
  EXPECT_EQ(Opened.Store, nullptr);
}

//===----------------------------------------------------------------------===//
// The two-tier composition
//===----------------------------------------------------------------------===//

TEST(TieredStoreTest, DiskHitIsPromotedToRam) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  const float X[] = {9.5f};

  // Process one: write-through seeds both tiers.
  Certificate Cold;
  {
    CertCache Ram(/*MaxBytes=*/0);
    std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
    TieredStore Tiered(&Ram, Disk.get());
    Config.Cache = &Tiered;
    Cold = V.verify(X, 2, Config);
    EXPECT_EQ(Ram.stats().Misses, 1u);
    EXPECT_EQ(Disk->stats().Misses, 1u);
    EXPECT_EQ(Ram.stats().Stores, 1u);
    EXPECT_EQ(Disk->stats().Stores, 1u);
  }

  // Process two: RAM is empty, disk is warm. First repeat hits disk and
  // is promoted; the second repeat must hit RAM without touching disk.
  CertCache Ram(/*MaxBytes=*/0);
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore Tiered(&Ram, Disk.get());
  Config.Cache = &Tiered;

  Certificate FirstRepeat = V.verify(X, 2, Config);
  expectIdenticalCertificates(Cold, FirstRepeat);
  EXPECT_EQ(Disk->stats().Hits, 1u);
  EXPECT_EQ(Ram.stats().Hits, 0u);
  EXPECT_EQ(Ram.stats().Misses, 1u);
  EXPECT_EQ(Ram.stats().Stores, 1u); // The promotion.

  Certificate SecondRepeat = V.verify(X, 2, Config);
  expectIdenticalCertificates(Cold, SecondRepeat);
  EXPECT_EQ(Ram.stats().Hits, 1u);
  EXPECT_EQ(Ram.stats().Misses, 1u); // Unchanged.
  EXPECT_EQ(Disk->stats().Hits, 1u); // Disk untouched by the repeat.
  EXPECT_EQ(Disk->stats().Misses, 0u);
  // The disk tier declined nothing and appended nothing extra: the
  // promotion is RAM-only, write-through happened once.
  EXPECT_EQ(Disk->stats().Stores, 0u);
  EXPECT_EQ(Disk->stats().LiveRecords, 1u);
}

TEST(TieredStoreTest, RamEvictionFallsBackToDiskAndRepromotes) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  // A RAM tier too small for any entry: every store declines, every
  // lookup falls through — the disk tier alone must keep serving.
  CertCache Ram(/*MaxBytes=*/1);
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore Tiered(&Ram, Disk.get());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = &Tiered;
  const float X[] = {9.5f};

  Certificate Cold = V.verify(X, 1, Config);
  Certificate Warm = V.verify(X, 1, Config);
  expectIdenticalCertificates(Cold, Warm);
  EXPECT_EQ(Disk->stats().Misses, 1u);
  EXPECT_EQ(Disk->stats().Hits, 1u);
  EXPECT_EQ(Ram.stats().Hits, 0u);
  EXPECT_EQ(Ram.stats().Misses, 2u);
  EXPECT_EQ(Ram.stats().Declined, 2u); // Write-through + promotion.
}

TEST(TieredStoreTest, ConcurrentBatchWorkersShareBothTiers) {
  // The TSan CI job runs this: four pool workers hammering one tiered
  // store — RAM probes, disk appends under the flock, promotions —
  // must stay race-free, and every served certificate must match a
  // store-less verification in every deterministic field.
  Rng R(77);
  RandomDatasetSpec Spec;
  Spec.MinRows = 8;
  Spec.MaxRows = 12;
  Dataset Train = makeRandomDataset(R, Spec);
  Verifier V(Train);

  TempStoreDir Dir;
  CertCache Ram(/*MaxBytes=*/4096); // Small: concurrent RAM evictions.
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore Tiered(&Ram, Disk.get());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cache = &Tiered;

  std::vector<std::vector<float>> Points;
  for (int I = 0; I < 16; ++I)
    Points.push_back(makeRandomQuery(R, Spec));
  std::vector<const float *> Inputs;
  for (int Round = 0; Round < 3; ++Round)
    for (const auto &P : Points)
      Inputs.push_back(P.data());

  std::unique_ptr<ThreadPool> Pool = makeVerificationPool(4);
  std::vector<Certificate> Certs =
      V.verifyBatch(Inputs, 2, Config, Pool.get());

  VerifierConfig Fresh = makeConfig(AbstractDomainKind::Disjuncts);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Certificate Expected = V.verify(Inputs[I], 2, Fresh);
    EXPECT_EQ(Certs[I].Kind, Expected.Kind) << "query " << I;
    EXPECT_EQ(Certs[I].ConcretePrediction, Expected.ConcretePrediction);
    EXPECT_EQ(Certs[I].NumTerminals, Expected.NumTerminals);
    EXPECT_EQ(Certs[I].PeakDisjuncts, Expected.PeakDisjuncts);
  }
  // Every lookup consults RAM first, and every RAM miss falls through
  // to disk exactly once.
  StoreStats RamStats = Ram.stats();
  StoreStats DiskStats = Disk->stats();
  EXPECT_EQ(RamStats.Hits + RamStats.RangeHits + RamStats.Misses,
            Inputs.size());
  EXPECT_EQ(DiskStats.Hits + DiskStats.RangeHits + DiskStats.Misses,
            RamStats.Misses);
  EXPECT_GE(DiskStats.Misses, 16u); // At least one cold run per point.
  // Every distinct point is on disk exactly once (duplicate offers from
  // racing workers were declined, not appended).
  EXPECT_EQ(Disk->stats().LiveRecords, 16u);

  // And a restart serves all 16 from disk.
  Disk.reset();
  Disk = openOrDie(Dir.path());
  EXPECT_EQ(Disk->stats().LiveRecords, 16u);
  Config.Cache = Disk.get();
  for (const auto &P : Points)
    V.verify(P.data(), 2, Config);
  EXPECT_EQ(Disk->stats().Hits, 16u);
}

TEST(TieredStoreTest, DegradesToSingleTierWhenOneIsAbsent) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X[] = {9.5f};

  // RAM-only tiering behaves like the plain cache.
  CertCache Ram(/*MaxBytes=*/0);
  TieredStore RamOnly(&Ram, nullptr);
  Config.Cache = &RamOnly;
  Certificate Cold = V.verify(X, 1, Config);
  expectIdenticalCertificates(Cold, V.verify(X, 1, Config));
  EXPECT_EQ(Ram.stats().Hits, 1u);
  EXPECT_EQ(Ram.stats().Misses, 1u);

  // Disk-only tiering still serves across handles.
  TempStoreDir Dir;
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore DiskOnly(nullptr, Disk.get());
  Config.Cache = &DiskOnly;
  Certificate DiskCold = V.verify(X, 1, Config);
  expectIdenticalCertificates(DiskCold, V.verify(X, 1, Config));
  EXPECT_EQ(Disk->stats().Hits, 1u);
  EXPECT_EQ(Disk->stats().Misses, 1u);
}

//===----------------------------------------------------------------------===//
// Radius-range lookup across restarts: the serving lattice on disk
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic *original* proof at \p Radius (`CertifiedRadius` equals
/// the key's budget, so the record joins the range index on load).
Certificate makeProof(VerdictKind Kind, uint32_t Radius) {
  Certificate Cert;
  Cert.Kind = Kind;
  Cert.PoisoningBudget = Radius;
  Cert.CertifiedRadius = Radius;
  Cert.NumTerminals = 1;
  return Cert;
}

DatasetFingerprint someFingerprint() {
  DatasetFingerprint FP;
  FP.Hi = 0x1234;
  FP.Lo = 0x5678;
  return FP;
}

} // namespace

TEST(DiskStoreRangeTest, ColdProcessAnswersNarrowerBudgetViaRange) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};

  // Process one proves Robust at radius 5 and exits.
  {
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    Store->store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  }

  // Process two never saw that query: the rebuilt index must serve the
  // narrower budget from the persisted proof, radius intact (the v2
  // payload round-trips CertifiedRadius).
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  Certificate Out;
  ASSERT_TRUE(Store->lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Robust);
  EXPECT_EQ(Out.PoisoningBudget, 3u);
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Store->stats().RangeHits, 1u);

  // The exact budget is a plain hit; wider than the proof is a miss.
  ASSERT_TRUE(Store->lookup(FP, X, 1, 5, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_FALSE(Store->lookup(FP, X, 1, 6, Config, Out));
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
}

TEST(DiskStoreRangeTest, UnknownServesWiderBudgetAcrossRestart) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  {
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    Store->store(FP, X, 1, 2, Config, makeProof(VerdictKind::Unknown, 2));
  }

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  Certificate Out;
  ASSERT_TRUE(Store->lookup(FP, X, 1, 4, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Unknown);
  EXPECT_EQ(Out.PoisoningBudget, 4u);
  EXPECT_EQ(Out.CertifiedRadius, 2u);
  EXPECT_FALSE(Store->lookup(FP, X, 1, 1, Config, Out));
}

TEST(DiskStoreRangeTest, RetentionEvictionDropsRangeEntries) {
  // One record per segment (~152 bytes with its header), room for two.
  TempStoreDir Dir;
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 160;
  Options.RetentionBytes = 320;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f}, Z[] = {2.0f};
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), Options);
  Store->store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  Store->store(FP, X, 1, 8, Config, makeProof(VerdictKind::Unknown, 8));
  Certificate Out;
  ASSERT_TRUE(Store->lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);

  // A third segment pushes the oldest — the radius-5 proof — out. Its
  // range entry must go with it: the narrower budget now misses, while
  // the surviving Unknown still answers wider budgets.
  Store->store(FP, Z, 1, 1, Config, makeProof(VerdictKind::Robust, 1));
  ASSERT_EQ(Store->stats().RetentionEvictedSegments, 1u);
  EXPECT_FALSE(Store->lookup(FP, X, 1, 3, Config, Out));
  ASSERT_TRUE(Store->lookup(FP, X, 1, 9, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Unknown);
  EXPECT_EQ(Out.CertifiedRadius, 8u);

  // And the same from a cold open of the evicted directory.
  Store.reset();
  Store = openOrDie(Dir.path(), Options);
  EXPECT_EQ(Store->stats().LiveRecords, 2u);
  EXPECT_FALSE(Store->lookup(FP, X, 1, 3, Config, Out));
  ASSERT_TRUE(Store->lookup(FP, X, 1, 9, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 8u);
}

TEST(DiskStoreRangeTest, OffBudgetRecordServesExactOnly) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());

  // A record whose radius differs from its key's budget (what a
  // promoted range-served answer would look like if it were ever
  // written through) must not join the range index.
  Certificate Promoted = makeProof(VerdictKind::Robust, 5);
  Promoted.PoisoningBudget = 3;
  Store->store(FP, X, 1, 3, Config, Promoted);

  Certificate Out;
  EXPECT_FALSE(Store->lookup(FP, X, 1, 2, Config, Out));
  ASSERT_TRUE(Store->lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Store->stats().RangeHits, 0u);

  // Same discipline after a cold reload of the segment.
  Store.reset();
  std::unique_ptr<DiskCertStore> Reopened = openOrDie(Dir.path());
  EXPECT_FALSE(Reopened->lookup(FP, X, 1, 2, Config, Out));
}

TEST(TieredStoreTest, DiskRangeHitPromotesAsExactOnly) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  Disk->store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));

  CertCache Ram(/*MaxBytes=*/0);
  TieredStore Tiered(&Ram, Disk.get());

  // RAM misses, disk range-serves, the answer is promoted under the
  // queried budget 3.
  Certificate Out;
  ASSERT_TRUE(Tiered.lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Disk->stats().RangeHits, 1u);
  EXPECT_EQ(Ram.stats().Stores, 1u);

  // Exact repeats of budget 3 now hit RAM...
  ASSERT_TRUE(Tiered.lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Ram.stats().Hits, 1u);
  EXPECT_EQ(Disk->stats().RangeHits, 1u);

  // ...but the promoted copy (radius 5 under budget 3) stayed out of
  // the RAM range index: budget 2 falls through to the disk tier's
  // original proof instead of being served twice over from RAM.
  ASSERT_TRUE(Tiered.lookup(FP, X, 1, 2, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Ram.stats().RangeHits, 0u);
  EXPECT_EQ(Disk->stats().RangeHits, 2u);
}

TEST(DiskCertStoreTest, RetentionEvictsOldestSegmentsButNeverTheOpenOne) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);

  // One record per segment (a record plus the segment header is ~152
  // bytes; rotating past 160 isolates each append), with room for two
  // closed segments plus the open one in the byte budget.
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 160;
  Options.RetentionBytes = 320;
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), Options);
  Config.Cache = Store.get();

  std::vector<float> Queries = {1.5f, 4.5f, 9.5f, 12.5f};
  Certificate Last;
  for (float Q : Queries) {
    const float X[] = {Q};
    Last = V.verify(X, /*PoisoningBudget=*/1, Config);
  }

  StoreStats Stats = Store->stats();
  EXPECT_GT(Stats.RetentionEvictedSegments, 0u);
  EXPECT_LT(Stats.LiveRecords, Queries.size());
  // Whole segments went: the evicted records are gone from the index
  // and the files from the directory.
  EXPECT_EQ(Stats.Evictions, Queries.size() - Stats.LiveRecords);
  EXPECT_LT(Stats.Segments, Queries.size());
  struct stat St;
  EXPECT_NE(::stat(Dir.sub("seg-000001.antcert").c_str(), &St), 0);

  // The newest record rode the open append segment, which retention
  // must never touch: it still serves, byte-identical.
  const float X[] = {Queries.back()};
  Certificate Out;
  ASSERT_TRUE(
      Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
  expectIdenticalCertificates(Last, Out);

  // The degenerate budget: every append overshoots one byte, yet the
  // record just written must survive its own store.
  TempStoreDir TinyDir;
  DiskCertStoreOptions Tiny;
  Tiny.MaxSegmentBytes = 160;
  Tiny.RetentionBytes = 1;
  std::unique_ptr<DiskCertStore> TinyStore = openOrDie(TinyDir.path(), Tiny);
  VerifierConfig TinyConfig = makeConfig(AbstractDomainKind::Box);
  TinyConfig.Cache = TinyStore.get();
  Certificate Fresh = V.verify(X, /*PoisoningBudget=*/1, TinyConfig);
  ASSERT_TRUE(
      TinyStore->lookup(V.fingerprint(), X, 1, 1, TinyConfig, Out));
  expectIdenticalCertificates(Fresh, Out);
  EXPECT_GE(TinyStore->stats().LiveRecords, 1u);
}

//===----------------------------------------------------------------------===//
// Ownership: one process per store directory, until it lets go or dies
//===----------------------------------------------------------------------===//

TEST(DiskCertStoreTest, SecondOpenOfAnOwnedDirectoryFailsUntilReleased) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X[] = {9.5f};

  std::unique_ptr<DiskCertStore> A = openOrDie(Dir.path());
  DiskCertStore::OpenResult B = DiskCertStore::open(Dir.path());
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find(Dir.path()), std::string::npos) << B.Error;
  EXPECT_NE(B.Error.find("in use"), std::string::npos) << B.Error;

  // The refused open took nothing from the owner: A still stores and
  // serves.
  Config.Cache = A.get();
  Certificate Stored = V.verify(X, 1, Config);
  EXPECT_EQ(A->stats().Stores, 1u);
  Certificate Out;
  ASSERT_TRUE(A->lookup(V.fingerprint(), X, 1, 1, Config, Out));
  expectIdenticalCertificates(Stored, Out);

  // Destroying the handle releases the directory.
  A.reset();
  B = DiskCertStore::open(Dir.path());
  ASSERT_TRUE(B.ok()) << B.Error;
  ASSERT_TRUE(B.Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
  expectIdenticalCertificates(Stored, Out);
}

TEST(DiskCertStoreTest, KilledOwnerReleasesTheDirectory) {
  // The kernel drops a flock when its holder dies, however it dies: an
  // owner killed by SIGKILL (no destructor, no unlock) must leave a
  // directory the next process can open, with every record it appended
  // intact.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  std::vector<float> Queries = {1.5f, 4.5f, 9.5f, 12.5f};
  std::vector<Certificate> Fresh;
  for (float Q : Queries) {
    const float X[] = {Q};
    Fresh.push_back(V.verify(X, 1, Config));
  }

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // No gtest assertions in the child: it reports through how it ends.
    DiskCertStore::OpenResult Opened = DiskCertStore::open(Dir.path());
    if (!Opened.ok())
      ::_exit(2);
    for (size_t I = 0; I < Queries.size(); ++I) {
      const float X[] = {Queries[I]};
      Opened.Store->store(V.fingerprint(), X, 1, 1, Config, Fresh[I]);
    }
    if (Opened.Store->stats().Stores != Queries.size())
      ::_exit(3);
    ::raise(SIGKILL);
    ::_exit(4);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status))
      << "child exited with status " << WEXITSTATUS(Status);
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().LiveRecords, Queries.size());
  for (size_t I = 0; I < Queries.size(); ++I) {
    const float X[] = {Queries[I]};
    Certificate Out;
    ASSERT_TRUE(Store->lookup(V.fingerprint(), X, 1, 1, Config, Out))
        << "record " << I;
    expectIdenticalCertificates(Fresh[I], Out);
  }
}
