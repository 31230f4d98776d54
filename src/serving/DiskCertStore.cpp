//===- serving/DiskCertStore.cpp - Disk-backed certificate store --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/DiskCertStore.h"

#include "support/BitHash.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace antidote;

namespace {

// Segment header: "ACST" magic + format version, 8 bytes.
constexpr uint32_t SegmentMagic = 0x54534341u; // "ACST" little-endian.
constexpr uint32_t RecordMagic = 0x54524543u;  // "CERT" little-endian.
constexpr size_t SegmentHeaderBytes = 8;
constexpr size_t RecordHeaderBytes = 16; // magic + payload size + checksum.
/// Sanity bound on one record's payload: a query would need ~60M
/// features to exceed it, so anything larger is corruption, not data.
constexpr uint32_t MaxPayloadBytes = 1u << 28;

/// FNV-1a 64 over the payload — torn-write detection, not a MAC (the
/// threat model poisons training rows, not the store directory).
uint64_t fnv1a64(const uint8_t *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Fixed-width little-endian serialization. Floats and doubles go
/// through their storage bits (support/BitHash.h policy), `size_t`
/// widens to u64, so records are identical across platforms.
struct ByteWriter {
  std::vector<uint8_t> Bytes;

  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
};

struct ByteReader {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;

  bool take(size_t N) {
    if (Failed || Size - Pos < N) {
      Failed = true;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!take(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }
};

float floatFromBits(uint32_t Bits) {
  float V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

double doubleFromBits(uint64_t Bits) {
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

void writePayload(ByteWriter &W, const StoreKey &K, const Certificate &Cert) {
  // Key first (so the index rebuild never touches certificate fields),
  // certificate after; see the header comment for the field meanings.
  W.u64(K.Data.Hi);
  W.u64(K.Data.Lo);
  W.u32(K.PoisoningBudget);
  W.u32(K.Depth);
  W.u8(static_cast<uint8_t>(K.Domain));
  W.u8(static_cast<uint8_t>(K.Cprob));
  W.u8(static_cast<uint8_t>(K.Gini));
  // FormatVersion 3: the threat model partitions keys (and hence the
  // range indexes) per model.
  W.u8(static_cast<uint8_t>(K.Threat));
  W.u64(K.DisjunctCap);
  W.u64(doubleBits(K.TimeoutSeconds));
  W.u64(K.MaxDisjuncts);
  W.u64(K.MaxStateBytes);
  W.u32(static_cast<uint32_t>(K.Query.size()));
  for (float V : K.Query)
    W.u32(floatBits(V));

  W.u8(static_cast<uint8_t>(Cert.Kind));
  W.u32(Cert.PoisoningBudget);
  W.u32(Cert.Depth);
  W.u8(static_cast<uint8_t>(Cert.Domain));
  W.u8(static_cast<uint8_t>(Cert.Threat));
  W.u32(Cert.ConcretePrediction);
  W.u8(Cert.DominatingClass ? 1 : 0);
  W.u32(Cert.DominatingClass ? *Cert.DominatingClass : 0);
  W.u64(Cert.NumTerminals);
  W.u64(Cert.PeakDisjuncts);
  W.u64(Cert.PeakStateBytes);
  W.u32(Cert.BestSplitCalls);
  W.u64(doubleBits(Cert.Seconds));
  // FormatVersion 2: the proof radius the range index serves from.
  W.u32(Cert.CertifiedRadius);
}

bool readPayload(const uint8_t *Payload, size_t PayloadBytes, StoreKey &K,
                 Certificate &Cert) {
  ByteReader R{Payload, PayloadBytes};
  K.Data.Hi = R.u64();
  K.Data.Lo = R.u64();
  K.PoisoningBudget = R.u32();
  K.Depth = R.u32();
  K.Domain = static_cast<AbstractDomainKind>(R.u8());
  K.Cprob = static_cast<CprobTransformerKind>(R.u8());
  K.Gini = static_cast<GiniLiftingKind>(R.u8());
  K.Threat = static_cast<ThreatModelKind>(R.u8());
  K.DisjunctCap = static_cast<size_t>(R.u64());
  K.TimeoutSeconds = doubleFromBits(R.u64());
  K.MaxDisjuncts = static_cast<size_t>(R.u64());
  K.MaxStateBytes = R.u64();
  uint32_t NumFeatures = R.u32();
  if (R.Failed || NumFeatures > PayloadBytes / sizeof(float))
    return false;
  K.Query.resize(NumFeatures);
  for (uint32_t I = 0; I < NumFeatures; ++I)
    K.Query[I] = floatFromBits(R.u32());

  Cert.Kind = static_cast<VerdictKind>(R.u8());
  Cert.PoisoningBudget = R.u32();
  Cert.Depth = R.u32();
  Cert.Domain = static_cast<AbstractDomainKind>(R.u8());
  Cert.Threat = static_cast<ThreatModelKind>(R.u8());
  Cert.ConcretePrediction = R.u32();
  bool HasDominating = R.u8() != 0;
  uint32_t Dominating = R.u32();
  Cert.DominatingClass =
      HasDominating ? std::optional<unsigned>(Dominating) : std::nullopt;
  Cert.NumTerminals = static_cast<size_t>(R.u64());
  Cert.PeakDisjuncts = static_cast<size_t>(R.u64());
  Cert.PeakStateBytes = R.u64();
  Cert.BestSplitCalls = R.u32();
  Cert.Seconds = doubleFromBits(R.u64());
  Cert.CertifiedRadius = R.u32();
  // The whole payload must be consumed (trailing bytes mean a format
  // skew the version header should have caught), and only verdicts the
  // write side may persist are accepted back — `isDeterministicVerdict`
  // on the read side too, so even a record appended by buggy or
  // foreign tooling can never replay a Timeout/Cancelled a fresh run
  // might contradict.
  return !R.Failed && R.Pos == PayloadBytes &&
         isDeterministicVerdict(Cert.Kind);
}

std::vector<uint8_t> serializeRecord(const StoreKey &K,
                                     const Certificate &Cert) {
  ByteWriter Payload;
  writePayload(Payload, K, Cert);
  ByteWriter Record;
  Record.Bytes.reserve(RecordHeaderBytes + Payload.Bytes.size());
  Record.u32(RecordMagic);
  Record.u32(static_cast<uint32_t>(Payload.Bytes.size()));
  Record.u64(fnv1a64(Payload.Bytes.data(), Payload.Bytes.size()));
  Record.Bytes.insert(Record.Bytes.end(), Payload.Bytes.begin(),
                      Payload.Bytes.end());
  return Record.Bytes;
}

/// Validates one whole serialized record of exactly \p Size bytes —
/// magic, length, checksum, parseable payload, persistable verdict —
/// and parses it. The one check every path that trusts record bytes
/// applies: the segment walk, poll serving, and the replica's apply.
bool parseRecord(const uint8_t *Data, size_t Size, StoreKey &K,
                 Certificate &Cert) {
  if (Size < RecordHeaderBytes)
    return false;
  ByteReader R{Data, RecordHeaderBytes};
  uint32_t Magic = R.u32();
  uint32_t PayloadBytes = R.u32();
  uint64_t Checksum = R.u64();
  return Magic == RecordMagic && PayloadBytes <= MaxPayloadBytes &&
         PayloadBytes == Size - RecordHeaderBytes &&
         fnv1a64(Data + RecordHeaderBytes, PayloadBytes) == Checksum &&
         readPayload(Data + RecordHeaderBytes, PayloadBytes, K, Cert);
}

/// The payload checksum a record header carries.
uint64_t recordChecksum(const uint8_t *Record) {
  ByteReader R{Record + 8, 8};
  return R.u64();
}

/// Outcome of walking a run of records.
struct SegmentWalk {
  uint64_t ValidEnd = 0; ///< File offset just past the last framed record.
  uint64_t Corrupt = 0;  ///< Framed records that failed validation.
};

/// The record walk behind the open-time scan. \p Bytes holds \p Size
/// bytes of a segment starting at the record boundary \p Base (a file
/// offset). Invokes
/// `Cb(Offset, RecordBytes, Key, Cert)` for every framed record, with
/// \p Key null when the record fails validation (a checksum failure
/// skips just that record — the next boundary is still known). A bad
/// or torn record header loses the boundary and stops the walk.
template <typename OnRecord>
SegmentWalk walkSegmentRecords(const uint8_t *Bytes, size_t Size,
                               uint64_t Base, OnRecord &&Cb) {
  SegmentWalk Walk;
  size_t Pos = 0;
  while (Size - Pos >= RecordHeaderBytes) {
    ByteReader R{Bytes + Pos, RecordHeaderBytes};
    uint32_t Magic = R.u32();
    uint32_t PayloadBytes = R.u32();
    if (Magic != RecordMagic || PayloadBytes > MaxPayloadBytes ||
        PayloadBytes > Size - Pos - RecordHeaderBytes)
      break;
    size_t RecordBytes = RecordHeaderBytes + PayloadBytes;
    StoreKey Key;
    Certificate Cert;
    bool Intact = parseRecord(Bytes + Pos, RecordBytes, Key, Cert);
    if (!Intact)
      ++Walk.Corrupt;
    Cb(Base + Pos, RecordBytes, Intact ? &Key : nullptr, Cert);
    Pos += RecordBytes;
  }
  Walk.ValidEnd = Base + Pos;
  return Walk;
}

std::string errnoString() { return std::strerror(errno); }

/// Strictly parses "seg-NNNNNN.antcert": only names that round-trip
/// through the `segmentPath` shape (zero-padded to >= 6 digits) are
/// accepted, so a foreign "seg-1.antcert" can never alias the store's
/// own "seg-000001.antcert" — every accepted Id reads and unlinks
/// exactly the directory entry it was parsed from. (sscanf would
/// silently truncate wide ids and accept mismatched suffixes.)
bool parseSegmentName(const char *Name, uint32_t &Id) {
  static const char Prefix[] = "seg-";
  static const char Suffix[] = ".antcert";
  if (std::strncmp(Name, Prefix, sizeof(Prefix) - 1) != 0)
    return false;
  const char *P = Name + sizeof(Prefix) - 1;
  uint64_t Value = 0;
  unsigned Digits = 0;
  while (*P >= '0' && *P <= '9') {
    Value = Value * 10 + static_cast<uint64_t>(*P - '0');
    if (Value > UINT32_MAX)
      return false;
    ++P;
    ++Digits;
  }
  if (std::strcmp(P, Suffix) != 0)
    return false;
  // Round-trip check: %06u pads to 6 digits and never truncates wider
  // ids, so the canonical spelling has exactly max(6, natural) digits.
  char Canonical[16];
  std::snprintf(Canonical, sizeof(Canonical), "%06u",
                static_cast<uint32_t>(Value));
  if (Digits != std::strlen(Canonical))
    return false;
  Id = static_cast<uint32_t>(Value);
  return true;
}

/// The ids of every "seg-NNNNNN.antcert" in \p Dir, ascending. Foreign
/// files are left alone.
bool listSegmentIds(const std::string &Dir, std::vector<uint32_t> &Ids,
                    std::string &Error) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    Error = "cannot list '" + Dir + "': " + errnoString();
    return false;
  }
  while (struct dirent *Entry = ::readdir(D)) {
    uint32_t Id = 0;
    if (parseSegmentName(Entry->d_name, Id))
      Ids.push_back(Id);
  }
  ::closedir(D);
  std::sort(Ids.begin(), Ids.end());
  return true;
}

/// mkdir -p: creates every missing component of \p Dir.
bool makeDirs(const std::string &Dir, std::string &Error) {
  std::string Path;
  size_t Pos = 0;
  while (Pos <= Dir.size()) {
    size_t Slash = Dir.find('/', Pos);
    if (Slash == std::string::npos)
      Slash = Dir.size();
    Path = Dir.substr(0, Slash);
    Pos = Slash + 1;
    if (Path.empty())
      continue; // Leading '/'.
    if (::mkdir(Path.c_str(), 0755) != 0 && errno != EEXIST) {
      Error = "cannot create directory '" + Path + "': " + errnoString();
      return false;
    }
  }
  // A trailing component that exists must be a directory.
  struct stat St;
  if (::stat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode)) {
    Error = "'" + Dir + "' is not a directory";
    return false;
  }
  return true;
}

bool writeAll(int Fd, const uint8_t *Data, size_t Size) {
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::write(Fd, Data + Done, Size - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Done += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

DiskCertStore::OpenResult DiskCertStore::open(const std::string &Dir,
                                              const DiskCertStoreOptions &Options) {
  OpenResult Result;
  if (Dir.empty()) {
    Result.Error = "certificate store directory must not be empty";
    return Result;
  }
  if (!makeDirs(Dir, Result.Error))
    return Result;

  std::unique_ptr<DiskCertStore> Store(new DiskCertStore(Dir, Options));
  std::string LockPath = Dir + "/LOCK";
  Store->LockFd = ::open(LockPath.c_str(), O_CREAT | O_RDWR, 0644);
  if (Store->LockFd < 0) {
    Result.Error =
        "cannot open certificate store '" + Dir + "': " + errnoString();
    return Result;
  }
  // Held until the handle is destroyed (or the process dies): nothing
  // else writes this directory while this handle serves from it.
  int Rc = 0;
  while ((Rc = ::flock(Store->LockFd, LOCK_EX | LOCK_NB)) != 0 &&
         errno == EINTR) {
  }
  if (Rc != 0) {
    if (errno == EWOULDBLOCK)
      Result.Error =
          "certificate store '" + Dir + "' is in use by another process";
    else
      Result.Error =
          "cannot lock certificate store '" + Dir + "': " + errnoString();
    return Result;
  }
  if (!Store->loadLocked(Result.Error))
    return Result;
  // The directory may already exceed the retention budget (the budget
  // may have shrunk since the last run).
  Store->applyRetentionLocked();
  Result.Store = std::move(Store);
  return Result;
}

DiskCertStore::~DiskCertStore() {
  std::lock_guard<std::mutex> Guard(Mutex);
  for (auto &[Segment, Fd] : ReadFds)
    ::close(Fd); // Only successful opens are cached.
  if (AppendFd >= 0)
    ::close(AppendFd);
  if (LockFd >= 0)
    ::close(LockFd);
}

std::string DiskCertStore::segmentPath(uint32_t Segment) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "seg-%06u.antcert", Segment);
  return Dir + "/" + Name;
}

bool DiskCertStore::loadLocked(std::string &Error) {
  std::vector<uint32_t> Ids;
  if (!listSegmentIds(Dir, Ids, Error))
    return false;
  uint32_t Newest = Ids.empty() ? 0 : Ids.back();
  uint64_t FileBytes = 0;
  for (uint32_t Id : Ids) {
    uint64_t IndexedBefore = Stats.LiveRecords;
    if (!scanSegmentLocked(Id, FileBytes)) {
      ++Stats.StaleSegments;
      continue;
    }
    if (Segments[Id].End < FileBytes)
      // A torn tail or a bad record header ended the walk early.
      ++Stats.CorruptSkipped;
    if (Id != Newest && Stats.LiveRecords == IndexedBefore) {
      // A closed segment that serves nothing (every record corrupt or a
      // duplicate) never will: no append lands in it again.
      forgetSegmentLocked(Id);
      ::unlink(segmentPath(Id).c_str());
    }
  }

  // Appends continue the newest segment when it ends on a record
  // boundary — a torn tail is truncated back to one, since a scan stops
  // at the first bad boundary and appending after garbage would strand
  // the new records. A stale, foreign, or unrepairable newest segment
  // routes them to a fresh one instead (its id stays retired even once
  // the file is unlinked).
  AppendSegment = Newest + 1;
  auto It = Segments.find(Newest);
  if (It == Segments.end())
    return true;
  uint64_t End = It->second.End;
  if (End == FileBytes ||
      ::truncate(segmentPath(Newest).c_str(), static_cast<off_t>(End)) == 0)
    AppendSegment = Newest;
  return true;
}

bool DiskCertStore::scanSegmentLocked(uint32_t Id, uint64_t &FileBytes) {
  FileBytes = 0;
  int Fd = readFdLocked(Id);
  struct stat St;
  if (Fd < 0 || ::fstat(Fd, &St) != 0)
    return false; // Left on disk for the next open to retry.
  FileBytes = static_cast<uint64_t>(St.st_size);
  std::vector<uint8_t> Bytes(FileBytes);
  bool Read = readBytesLocked(Id, 0, Bytes) == ReadStatus::Ok;
  ByteReader R{Bytes.data(), Bytes.size()};
  bool Current = Read && Bytes.size() >= SegmentHeaderBytes &&
                 R.u32() == SegmentMagic && R.u32() == FormatVersion;
  if (!Current) {
    ::close(Fd);
    ReadFds.erase(Id);
    if (Read)
      // Foreign, other-format, or torn before its header finished: never
      // half-parsed, but unlinked, so a format bump reclaims its old
      // segments on the first open. An unreadable one is left for the
      // next open to retry.
      ::unlink(segmentPath(Id).c_str());
    return false;
  }
  SegmentState &S = Segments[Id];
  const uint8_t *Records = Bytes.data() + SegmentHeaderBytes;
  SegmentWalk Walk = walkSegmentRecords(
      Records, Bytes.size() - SegmentHeaderBytes, SegmentHeaderBytes,
      [&](uint64_t Offset, size_t RecordBytes, StoreKey *Key,
          const Certificate &Cert) {
        S.Starts.push_back(Offset);
        if (Key)
          indexRecordLocked(std::move(*Key), Cert, Id, Offset, RecordBytes,
                            recordChecksum(Bytes.data() + Offset));
      });
  S.End = Walk.ValidEnd;
  Stats.CorruptSkipped += Walk.Corrupt;
  return true;
}

uint64_t DiskCertStore::forgetSegmentLocked(uint32_t Id) {
  uint64_t Dropped = 0;
  for (auto It = Index.begin(); It != Index.end();) {
    if (It->second.Segment == Id) {
      It = eraseEntryLocked(It);
      ++Dropped;
    } else {
      ++It;
    }
  }
  auto Fd = ReadFds.find(Id);
  if (Fd != ReadFds.end()) {
    ::close(Fd->second);
    ReadFds.erase(Fd);
  }
  Segments.erase(Id);
  return Dropped;
}

bool DiskCertStore::indexRecordLocked(StoreKey &&Key, const Certificate &Cert,
                                      uint32_t Segment, uint64_t Offset,
                                      size_t RecordBytes, uint64_t Checksum) {
  RecordRef Ref;
  Ref.Segment = Segment;
  Ref.PayloadOffset = Offset + RecordHeaderBytes;
  Ref.PayloadBytes = static_cast<uint32_t>(RecordBytes - RecordHeaderBytes);
  Ref.Checksum = Checksum;
  Ref.Kind = Cert.Kind;
  Ref.CertifiedRadius = Cert.CertifiedRadius;
  auto [It, Inserted] = Index.try_emplace(std::move(Key), Ref);
  if (!Inserted) {
    // Equal keys hold interchangeable certificates; keep the first. A
    // closed segment left serving nothing is unlinked by the next open.
    ++Stats.DuplicateRecords;
    return false;
  }
  Ranges.add(It->first, Ref.Kind, Ref.CertifiedRadius);
  ++Stats.LiveRecords;
  Stats.LiveBytes += RecordBytes;
  return true;
}

int DiskCertStore::readFdLocked(uint32_t Segment) {
  auto It = ReadFds.find(Segment);
  if (It != ReadFds.end())
    return It->second;
  int Fd = ::open(segmentPath(Segment).c_str(), O_RDONLY);
  // Cache successes only: a transient failure (EMFILE under load) must
  // not turn the whole segment into permanent misses — the next lookup
  // retries.
  if (Fd >= 0)
    ReadFds.emplace(Segment, Fd);
  return Fd;
}

DiskCertStore::ReadStatus
DiskCertStore::readBytesLocked(uint32_t Segment, uint64_t Offset,
                               std::vector<uint8_t> &Out) {
  int Fd = readFdLocked(Segment);
  if (Fd < 0)
    // ENOENT = the segment file is gone (deleted behind the store's
    // back); anything else (EMFILE under load, ...) may clear up —
    // retry later.
    return errno == ENOENT ? ReadStatus::Gone : ReadStatus::Transient;
  size_t Done = 0;
  while (Done < Out.size()) {
    ssize_t N = ::pread(Fd, Out.data() + Done, Out.size() - Done,
                        static_cast<off_t>(Offset + Done));
    if (N < 0 && errno == EINTR)
      continue;
    if (N == 0)
      return ReadStatus::Gone; // The file shrank: record gone for good.
    if (N < 0)
      return ReadStatus::Transient;
    Done += static_cast<size_t>(N);
  }
  return ReadStatus::Ok;
}

DiskCertStore::IndexMap::iterator
DiskCertStore::eraseEntryLocked(IndexMap::iterator It) {
  Ranges.remove(It->first, It->second.Kind, It->second.CertifiedRadius);
  Stats.LiveBytes -= std::min<uint64_t>(
      Stats.LiveBytes, RecordHeaderBytes + It->second.PayloadBytes);
  --Stats.LiveRecords;
  return Index.erase(It);
}

bool DiskCertStore::lookupLocked(const StoreKey &K, uint32_t PoisoningBudget,
                                 Certificate &Out) {
  auto It = Index.find(K);
  bool Ranged = false;
  if (It == Index.end()) {
    // Exact miss: the radius-range rule, same preference order as the
    // RAM tier (serving/StoreKey.h `RadiusIndex`).
    const StoreKey *Found = Ranges.find(K, PoisoningBudget);
    if (!Found)
      return false;
    It = Index.find(*Found);
    assert(It != Index.end() && "range index out of lockstep");
    Ranged = true;
  }
  std::vector<uint8_t> Payload(It->second.PayloadBytes);
  StoreKey StoredKey;
  Certificate Cert;
  // Records are immutable once written, but re-verify end to end anyway:
  // a segment deleted or rewritten from outside, bit rot, or an index
  // bug must degrade to a miss (re-verification), never to a wrong
  // certificate.
  ReadStatus Status =
      readBytesLocked(It->second.Segment, It->second.PayloadOffset, Payload);
  if (Status == ReadStatus::Transient)
    // The record is probably fine (fd exhaustion etc.); keep the entry
    // so the next lookup retries, just miss this once.
    return false;
  if (Status == ReadStatus::Gone ||
      fnv1a64(Payload.data(), Payload.size()) != It->second.Checksum ||
      !readPayload(Payload.data(), Payload.size(), StoredKey, Cert) ||
      StoredKey != It->first ||
      (Ranged && !rangeServes(Cert.Kind, Cert.CertifiedRadius,
                              PoisoningBudget))) {
    // Permanently unreadable or not the record we indexed: drop the
    // dead entry — leaving it would also make `store` decline the
    // re-verified certificate as a "duplicate", pinning the key in a
    // never-served state for the rest of the process.
    eraseEntryLocked(It);
    ++Stats.CorruptSkipped;
    return false;
  }
  if (Ranged) {
    ++Stats.RangeHits;
    // The stored proof keeps its radius; only the answered budget is
    // rewritten (CertificateStore range contract,
    // serving/CertificateStore.h).
    Cert.PoisoningBudget = PoisoningBudget;
  } else {
    ++Stats.Hits;
  }
  Out = Cert;
  return true;
}

bool DiskCertStore::lookup(const DatasetFingerprint &Data, const float *X,
                           unsigned NumFeatures, uint32_t PoisoningBudget,
                           const VerifierConfig &Config, Certificate &Out) {
  StoreKey K = makeStoreKey(Data, X, NumFeatures, PoisoningBudget, Config);
  std::lock_guard<std::mutex> Guard(Mutex);
  if (lookupLocked(K, PoisoningBudget, Out))
    return true;
  ++Stats.Misses;
  return false;
}

bool DiskCertStore::appendLocked(const std::vector<uint8_t> &Record,
                                 StoreKey &&Key, const Certificate &Cert) {
  auto Rotate = [&] {
    if (AppendFd >= 0)
      ::close(AppendFd);
    AppendFd = -1;
    ++AppendSegment;
  };
  // At most one rotation (a full segment, or one ending off a walked
  // boundary) precedes the write into a fresh segment: two tries.
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    if (AppendFd < 0) {
      AppendFd = ::open(segmentPath(AppendSegment).c_str(),
                        O_CREAT | O_RDWR | O_APPEND, 0644);
      if (AppendFd < 0)
        return false;
    }
    // The authoritative size is the file's.
    off_t End = ::lseek(AppendFd, 0, SEEK_END);
    if (End < 0)
      return false;
    // A failed or partial write (disk full) must roll the file back to
    // the last good boundary: leaving torn bytes would strand every
    // later append behind them — the next open's scan stops at the
    // first bad record, silently losing the rest of the segment.
    auto WriteOrRollBack = [&](const uint8_t *Data, size_t Size,
                               off_t GoodEnd) {
      if (writeAll(AppendFd, Data, Size))
        return true;
      if (::ftruncate(AppendFd, GoodEnd) != 0)
        // Rollback failed too: abandon the segment, never append to it
        // again from this handle (reopen repairs it).
        Rotate();
      return false;
    };
    auto Seg = Segments.find(AppendSegment);
    if (End == 0) {
      ByteWriter Header;
      Header.u32(SegmentMagic);
      Header.u32(FormatVersion);
      if (!WriteOrRollBack(Header.Bytes.data(), Header.Bytes.size(), 0))
        return false;
      End = static_cast<off_t>(SegmentHeaderBytes);
      Seg = Segments.insert_or_assign(AppendSegment,
                                      SegmentState{SegmentHeaderBytes, {}})
                .first;
    } else if (Seg == Segments.end() ||
               Seg->second.End != static_cast<uint64_t>(End)) {
      // Stale, foreign, or ending in bytes the walk could not cross:
      // appending behind them would strand the record.
      Rotate();
      continue;
    }
    if (Options.MaxSegmentBytes &&
        static_cast<uint64_t>(End) + Record.size() > Options.MaxSegmentBytes &&
        static_cast<uint64_t>(End) > SegmentHeaderBytes) {
      Rotate();
      continue;
    }
    if (!WriteOrRollBack(Record.data(), Record.size(), End))
      return false;
    Seg->second.Starts.push_back(static_cast<uint64_t>(End));
    Seg->second.End = static_cast<uint64_t>(End) + Record.size();
    indexRecordLocked(std::move(Key), Cert, AppendSegment,
                      static_cast<uint64_t>(End), Record.size(),
                      recordChecksum(Record.data()));
    return true;
  }
  return false;
}

void DiskCertStore::store(const DatasetFingerprint &Data, const float *X,
                          unsigned NumFeatures, uint32_t PoisoningBudget,
                          const VerifierConfig &Config,
                          const Certificate &Cert) {
  if (!isDeterministicVerdict(Cert.Kind)) {
    std::lock_guard<std::mutex> Guard(Mutex);
    ++Stats.Declined;
    return;
  }
  StoreKey K = makeStoreKey(Data, X, NumFeatures, PoisoningBudget, Config);
  std::lock_guard<std::mutex> Guard(Mutex);
  if (Index.count(K)) {
    // Certificates for equal keys are interchangeable; appending again
    // would only grow the segment with bytes nothing serves.
    ++Stats.DuplicatesDeclined;
    return;
  }
  std::vector<uint8_t> Record = serializeRecord(K, Cert);
  if (!appendLocked(Record, std::move(K), Cert)) {
    // The store may decline (CertificateStore contract), but counts it:
    // a directory that stopped taking writes shows on the `disk:` line.
    ++Stats.Declined;
    return;
  }
  ++Stats.Stores;
  applyRetentionLocked();
}

void DiskCertStore::applyRetentionLocked() {
  if (!Options.RetentionBytes)
    return;
  uint64_t Total = 0;
  for (const auto &[Id, S] : Segments)
    Total += S.End;
  if (Total <= Options.RetentionBytes)
    return;
  // Oldest-first, never the open append segment, never the last one
  // standing: certificates are cache entries, so an evicted record is
  // simply re-verified — but evicting the segment appends are landing
  // in would tear the write path out from under itself. Replicas whose
  // cursor sits in a surviving segment are unaffected.
  while (Total > Options.RetentionBytes && Segments.size() > 1 &&
         Segments.begin()->first != AppendSegment) {
    uint32_t Victim = Segments.begin()->first;
    Total -= std::min(Total, Segments.begin()->second.End);
    Stats.Evictions += forgetSegmentLocked(Victim);
    ::unlink(segmentPath(Victim).c_str());
    ++Stats.RetentionEvictedSegments;
  }
}

ReplicationEndpoint::Delta
DiskCertStore::serveReplicationPoll(const PollRequest &Poll) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Delta D;
  D.Status = PollStatus::Delta;
  D.Segment = Poll.Segment;
  D.Offset = Poll.Offset;
  auto Seg = Segments.find(Poll.Segment);
  uint64_t Offset = Poll.Offset;
  if (Seg == Segments.end()) {
    // The cursor's segment is gone (retention, or unlinked by an open)
    // or was never one of ours: resume at the next live segment, else
    // at the oldest. Whatever that replays, the replica declines as
    // duplicates.
    Seg = Segments.upper_bound(Poll.Segment);
    if (Seg == Segments.end())
      Seg = Segments.begin();
    Offset = SegmentHeaderBytes;
  } else if (Offset != Seg->second.End &&
             !std::binary_search(Seg->second.Starts.begin(),
                                 Seg->second.Starts.end(), Offset)) {
    // Past EOF, or not a record boundary this handle walked: never
    // parse from there — rewind to the segment's first record.
    Offset = SegmentHeaderBytes;
  }
  if (Seg == Segments.end()) {
    D.AtHead = true; // Nothing to ship yet.
    return D;
  }

  uint32_t MaxRecords =
      std::min<uint32_t>(std::max<uint32_t>(Poll.MaxRecords, 1), 512);
  constexpr size_t MaxDeltaBytes = 256u << 10;
  size_t DeltaBytes = 0;
  for (;;) {
    const SegmentState &S = Seg->second;
    if (Offset >= S.End) {
      // Past the walked records: the end, a torn tail, or a bad header.
      auto Next = std::next(Seg);
      if (Next == Segments.end()) {
        // The newest segment: stay put, an append may be in flight.
        D.AtHead = true;
        break;
      }
      // An older segment never grows again: move on.
      Seg = Next;
      Offset = SegmentHeaderBytes;
      continue;
    }
    if (D.Records.size() >= MaxRecords || DeltaBytes >= MaxDeltaBytes)
      break;
    // Offset is a walked boundary, so the record ends at the next one.
    auto Start = std::lower_bound(S.Starts.begin(), S.Starts.end(), Offset);
    uint64_t RecordEnd = std::next(Start) == S.Starts.end() ? S.End
                                                            : *std::next(Start);
    std::vector<uint8_t> Record(RecordEnd - Offset);
    StoreKey Key;
    Certificate Cert;
    bool Ship =
        readBytesLocked(Seg->first, Offset, Record) == ReadStatus::Ok &&
        parseRecord(Record.data(), Record.size(), Key, Cert) &&
        ((!Poll.ScopeHi && !Poll.ScopeLo) ||
         (Key.Data.Hi == Poll.ScopeHi && Key.Data.Lo == Poll.ScopeLo));
    // A corrupt, vanished, or out-of-scope record is skipped; the
    // cursor still moves past it.
    Offset = RecordEnd;
    if (Ship) {
      DeltaBytes += Record.size();
      D.Records.push_back(std::move(Record));
    }
  }
  D.Segment = Seg->first;
  D.Offset = Offset;
  return D;
}

ReplicationEndpoint::ApplyResult
DiskCertStore::applyReplicatedRecord(const uint8_t *Data, size_t Size) {
  std::lock_guard<std::mutex> Guard(Mutex);
  // The same validation an open-time scan applies: header shape,
  // checksum, parseable payload, persistable verdict. A corrupt delta
  // is reported (and counted) but never lands in a segment.
  StoreKey Key;
  Certificate Cert;
  if (!parseRecord(Data, Size, Key, Cert)) {
    ++Stats.CorruptSkipped;
    return ApplyResult::Corrupt;
  }
  if (Index.count(Key)) {
    // Replays (after a cursor rewind, a fresh puller, a source segment
    // gone under the cursor) are no-ops — the normal duplicate-decline
    // path makes replication idempotent.
    ++Stats.DuplicatesDeclined;
    return ApplyResult::Duplicate;
  }
  // Append the *identical bytes* the source shipped: a replicated
  // certificate is byte-for-byte the source's record payload.
  if (!appendLocked(std::vector<uint8_t>(Data, Data + Size), std::move(Key),
                    Cert))
    return ApplyResult::Declined;
  ++Stats.Stores;
  applyRetentionLocked();
  return ApplyResult::Applied;
}

StoreStats DiskCertStore::stats() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  StoreStats Snapshot = Stats;
  Snapshot.Segments = Segments.size();
  return Snapshot;
}
