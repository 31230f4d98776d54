//===- serving/DiskCertStore.h - Disk-backed certificate store -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence tier of the certificate store: a `CertificateStore`
/// that appends certificates to segment files in one directory and
/// rebuilds a fingerprint-keyed in-memory index on open, so certificates
/// outlive the process that verified them. The 128-bit dataset content
/// fingerprint in every key (see serving/StoreKey.h) makes staleness
/// structurally impossible — a rebuilt or edited training set changes
/// the fingerprint, and the old records simply never match again.
///
/// ## On-disk format (FormatVersion 3)
///
/// A store directory holds a `LOCK` file plus append-only segments
/// `seg-NNNNNN.antcert`. Each segment starts with an 8-byte header
/// (magic "ACST", u32 format version); records follow back to back:
///
///     u32 record magic "CERT"
///     u32 payload bytes
///     u64 payload checksum (FNV-1a 64)
///     payload: serialized StoreKey, then the Certificate, both as
///              fixed-width little-endian fields with floats/doubles
///              stored as their bit patterns (support/BitHash.h policy)
///
/// FormatVersion 2 appended the certificate's `CertifiedRadius` (u32)
/// to the payload — the field the radius-range index serves from.
/// FormatVersion 3 added the threat model byte to both the key and the
/// certificate sections (a removal proof must never answer a flip
/// query; pre-threat records carry no model tag, so they cannot be
/// attributed safely). Per the invalidation story below, version-1 and
/// version-2 segments are skipped wholesale and unlinked on open (their
/// certificates are simply re-verified; always sound).
///
/// Every multi-byte field is explicitly little-endian; a record is
/// written with a single `write(2)` call, so a crash can only leave a
/// *torn tail*, never an interleaved one.
///
/// ## Crash consistency and corruption tolerance
///
/// `open` validates every record: a bad segment header (or unknown
/// format version) skips the whole segment, a bad record header stops
/// the scan of that segment (the record boundary is lost), and a
/// checksum mismatch skips just that record. A torn or corrupt record
/// is therefore *never served* — at worst a previously stored
/// certificate is forgotten and re-verified, which is always sound.
/// When the tail of the last segment is torn, open truncates it back to
/// the last whole record so later appends are not stranded behind
/// garbage. tests/DiskCertStoreTests.cpp truncates a store at every
/// byte offset and asserts reopen never returns a wrong certificate.
///
/// The same scan reclaims what can never serve again. It unlinks every
/// segment whose header it read and rejected (foreign magic, another
/// format version, shorter than a header), and every current-version
/// segment other than the newest in which no record was indexed (all
/// corrupt or duplicates). A segment it could not open or read is left
/// for the next open. Corrupt bytes inside a live segment stay until
/// retention evicts that segment. Nothing is ever rewritten: records
/// are never overwritten, so there is no live data to copy forward.
///
/// ## Ownership
///
/// One process owns a store directory for the whole life of its handle:
/// `open` takes an exclusive, non-blocking `flock(2)` on the `LOCK` file
/// and the handle holds it until it is destroyed (the kernel drops it
/// when the process dies, however it dies). A second open of an owned
/// directory fails with "in use by another process"; processes share
/// certificates by replication over the socket, not by sharing a
/// directory. Everything on disk is therefore written by this handle, so
/// the index built at open stays complete: segments are scanned once,
/// at open, and every later record is indexed as it is appended.
///
/// ## Replication (the `ReplicationEndpoint` face)
///
/// The segments are the replication log. A replica's cursor is a
/// (segment id, byte offset) pair naming a record boundary;
/// `serveReplicationPoll` ships the whole records after it, bytes
/// exactly as they sit in the segment (checksum re-verified before
/// shipping; a corrupt or out-of-scope record is skipped but the cursor
/// still moves past it). A cursor in a deleted segment (evicted by
/// retention, or unlinked by an open) resumes at the next live segment,
/// else the oldest; an offset past EOF or off a walked record boundary
/// rewinds to that segment's first record. `applyReplicatedRecord` is
/// the replica side: it validates the record like an open-time scan
/// would, declines duplicates, and appends the *identical bytes* — so a
/// replicated certificate is byte-for-byte the source's, and a replay
/// (after a rewind, say) degrades to duplicate declines, never a wrong
/// certificate.
///
/// ## Retention
///
/// `RetentionBytes` caps the directory's segment bytes: once exceeded,
/// whole segments are evicted oldest-first (never the open append
/// segment). Certificates are cache entries, not ledger rows — an
/// evicted record is simply re-verified. Retention is also what
/// reclaims corrupt bytes inside a live segment. A replica whose cursor
/// sits in a surviving segment is unaffected; one whose cursor segment
/// was evicted resumes at the next live one.
///
/// ## Invalidation story
///
///  - dataset changed → fingerprint changed → key never matches: no
///    staleness by construction, nothing to invalidate.
///  - format changed → bump `FormatVersion` → old segments fail the
///    header check and are skipped wholesale and unlinked on open. An
///    older binary likewise unlinks a newer binary's segments.
///
/// Only deterministic verdicts (Robust / Unknown / ResourceLimit) are
/// ever persisted — the same discipline as the RAM tier; `store`
/// declines anything else defensively even though `Verifier` never
/// offers it.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_DISKCERTSTORE_H
#define ANTIDOTE_SERVING_DISKCERTSTORE_H

#include "serving/CertificateStore.h"
#include "serving/StoreKey.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace antidote {

struct DiskCertStoreOptions {
  /// Appends rotate to a fresh segment once the current one would grow
  /// past this (retention's eviction granularity; the format has no hard
  /// limit). 0 = never rotate.
  uint64_t MaxSegmentBytes = 4ull << 20;

  /// Byte budget for the directory's segment files; 0 = unbounded.
  /// Exceeding it after an append (or found exceeded on open) evicts
  /// whole segments oldest-first — never the open append segment.
  uint64_t RetentionBytes = 0;
};

/// The disk tier of the production certificate store. Thread-safe like
/// every `CertificateStore` (one internal mutex); the only handle on its
/// directory per the ownership rule above. Compose it behind the RAM
/// tier with serving/TieredStore.h rather than using it as
/// `VerifierConfig::Cache` directly — it works alone, but every hit then
/// pays a disk read.
class DiskCertStore final : public CertificateStore,
                            public ReplicationEndpoint {
public:
  /// Bump on any record/segment layout change: old segments are then
  /// skipped wholesale (never half-parsed) and unlinked on open. 2 =
  /// CertifiedRadius joined the payload; 3 = the threat model byte
  /// joined both the key and certificate sections.
  static constexpr uint32_t FormatVersion = 3;

  /// `open` either yields a store or a human-readable reason it could
  /// not (unwritable directory, owned by another process, ...). Skipped
  /// corrupt records are *not* errors — they are counted in `stats()`.
  struct OpenResult {
    std::unique_ptr<DiskCertStore> Store;
    std::string Error;
    bool ok() const { return Store != nullptr; }
  };

  /// Opens (creating if needed) the store directory \p Dir, takes
  /// ownership of it, and rebuilds the index from its segments. The
  /// scan unlinks stale-version segments and closed segments with no
  /// indexed record (see "Crash consistency" above), so a format bump
  /// reclaims its invalidated segments on the first open; an unlink
  /// that fails is not an open failure. Then retention applies.
  static OpenResult open(const std::string &Dir,
                         const DiskCertStoreOptions &Options = {});

  ~DiskCertStore() override;

  DiskCertStore(const DiskCertStore &) = delete;
  DiskCertStore &operator=(const DiskCertStore &) = delete;

  bool lookup(const DatasetFingerprint &Data, const float *X,
              unsigned NumFeatures, uint32_t PoisoningBudget,
              const VerifierConfig &Config, Certificate &Out) override;

  void store(const DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const VerifierConfig &Config, const Certificate &Cert) override;

  StoreStats stats() const override;

  /// The disk tier *is* the replication endpoint.
  ReplicationEndpoint *replication() override { return this; }

  Delta serveReplicationPoll(const PollRequest &Poll) override;
  ApplyResult applyReplicatedRecord(const uint8_t *Data,
                                    size_t Size) override;

private:
  struct RecordRef {
    uint32_t Segment = 0;
    uint64_t PayloadOffset = 0;
    uint32_t PayloadBytes = 0;
    /// Kept in the index so every `lookup` re-verifies the payload it
    /// just read — post-open bit rot degrades to a miss, never to a
    /// wrong certificate.
    uint64_t Checksum = 0;
    /// Mirrored from the record so the range index can be maintained
    /// (and a dead entry unregistered) without re-reading the payload.
    VerdictKind Kind = VerdictKind::Unknown;
    uint32_t CertifiedRadius = 0;
  };

  /// What this handle knows of one readable current-version segment.
  struct SegmentState {
    /// Walked through here: always a record boundary, every record
    /// before it scanned at open or appended since (and indexed, when
    /// intact).
    uint64_t End = 0;
    /// Offsets of every walked record, ascending — the boundaries a
    /// replication cursor may name.
    std::vector<uint64_t> Starts;
  };

  using IndexMap = std::unordered_map<StoreKey, RecordRef, StoreKeyHash>;

  DiskCertStore(std::string Dir, const DiskCertStoreOptions &Options)
      : Dir(std::move(Dir)), Options(Options) {
    Stats.Disk = true;
  }

  /// Scans every segment, builds the index, unlinks closed segments
  /// with no indexed record, repairs a torn tail on the newest segment,
  /// and picks the append segment. Returns false with \p Error on hard
  /// I/O failure. Caller holds the mutex.
  bool loadLocked(std::string &Error);

  /// Checks segment \p Id's header and indexes the intact records of a
  /// current-version segment; false (nothing indexed) for a foreign,
  /// stale-version, torn-header, or unreadable one, of which all but
  /// the unreadable are unlinked. \p FileBytes receives the file's
  /// size. Runs only at open; caller holds the mutex.
  bool scanSegmentLocked(uint32_t Id, uint64_t &FileBytes);

  /// Drops segment \p Id and every index entry in it; returns how many
  /// entries went. Caller holds the mutex.
  uint64_t forgetSegmentLocked(uint32_t Id);

  /// Indexes one intact record at \p Offset of \p Segment. False (and
  /// counted as a duplicate) when the key is already indexed. Caller
  /// holds the mutex.
  bool indexRecordLocked(StoreKey &&Key, const Certificate &Cert,
                         uint32_t Segment, uint64_t Offset,
                         size_t RecordBytes, uint64_t Checksum);

  /// Enforces `RetentionBytes` by evicting whole segments oldest-first;
  /// never touches the open append segment. Caller holds the mutex.
  void applyRetentionLocked();

  std::string segmentPath(uint32_t Segment) const;

  /// Read fd for \p Segment, opened on demand and cached. -1 on failure.
  int readFdLocked(uint32_t Segment);

  /// Appends one serialized record (of \p Key and \p Cert) at the end
  /// of the append segment and indexes it. Caller holds the mutex.
  bool appendLocked(const std::vector<uint8_t> &Record, StoreKey &&Key,
                    const Certificate &Cert);

  /// How a read failed, if it did. The distinction matters for index
  /// hygiene: a transient failure must leave the entry in place for a
  /// later retry, a permanent one must drop it (or `store` would
  /// forever decline the re-verified certificate as a "duplicate").
  enum class ReadStatus : uint8_t {
    Ok,
    Transient, ///< fd exhaustion etc.; the record may still be fine.
    Gone,      ///< Missing file / short read: permanently unreadable.
  };

  /// Fills all of \p Out from \p Segment at \p Offset. Caller holds
  /// the mutex.
  ReadStatus readBytesLocked(uint32_t Segment, uint64_t Offset,
                             std::vector<uint8_t> &Out);

  /// Erases one index entry (stats + range index); returns the next.
  /// Caller holds the mutex.
  IndexMap::iterator eraseEntryLocked(IndexMap::iterator It);

  /// The exact probe, then the range probe, then the payload load
  /// behind `lookup`; caller holds the mutex.
  bool lookupLocked(const StoreKey &K, uint32_t PoisoningBudget,
                    Certificate &Out);

  const std::string Dir;
  const DiskCertStoreOptions Options;

  mutable std::mutex Mutex;
  int LockFd = -1;   ///< `LOCK` file, flocked for the handle's life.
  int AppendFd = -1; ///< Current append segment, O_APPEND.
  uint32_t AppendSegment = 0;
  IndexMap Index;
  /// Radius views of `Index`'s original proofs; kept in lockstep with
  /// `Index` by every insert and drop.
  RadiusIndex Ranges;
  std::unordered_map<uint32_t, int> ReadFds;
  /// Readable current-version segments, by id.
  std::map<uint32_t, SegmentState> Segments;
  StoreStats Stats;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_DISKCERTSTORE_H
