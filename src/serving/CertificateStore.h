//===- serving/CertificateStore.h - Unified store interface ----*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one abstract interface every certificate store implements — the
/// RAM LRU (`CertCache`), the persistent segment store (`DiskCertStore`),
/// and the two-tier composition (`TieredStore`) — so `Verifier`,
/// `CertServer`, `NetServer`, and `Replicator` each hold exactly one
/// `CertificateStore` and never name a concrete tier. The front ends
/// compose tiers at wiring time; everything behind them is
/// tier-agnostic.
///
/// Alongside the lookup/store contract (below) the interface carries:
///
///  - `probe`: a `lookup` that may skip optional side effects. No
///    serving path calls it; it stays because the perfbench timing
///    decorator overrides it.
///  - `stats()`: one shared `StoreStats` counter struct; every
///    front-end stats line is rendered by `StoreStats::summary()`, so a
///    new counter surfaces in every CLI and CI grep at once.
///  - `replication()`: the replication seam. The disk tier, whose
///    segments are an ordered append-only log, exposes a
///    `ReplicationEndpoint`; everything else returns null and a
///    `Replicator` refuses to start against it.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_CERTIFICATESTORE_H
#define ANTIDOTE_SERVING_CERTIFICATESTORE_H

#include "antidote/Verifier.h"

#include <cstdint>
#include <string>
#include <vector>

namespace antidote {

/// Monotonic counters plus the live footprint, shared by every store
/// tier. A consistent snapshot is taken under the store's own lock; the
/// fields a tier does not maintain stay zero (a RAM cache has no
/// segments, a plain disk store no ram/disk tier split).
struct StoreStats {
  // Serving counters.
  uint64_t Hits = 0;      ///< Exact-key hits.
  uint64_t RangeHits = 0; ///< Served by the radius-range rule
                          ///< (serving/StoreKey.h `rangeServes`).
  uint64_t Misses = 0;    ///< Neither an exact nor a range record served.

  // Write-path counters.
  uint64_t Stores = 0;             ///< Records this handle accepted.
  uint64_t DuplicatesDeclined = 0; ///< Stores skipped: key already present.
  uint64_t Declined = 0;   ///< Stores refused (verdict / budget).
  uint64_t Evictions = 0;  ///< Entries dropped (LRU tail or retention).

  // Live footprint.
  uint64_t LiveRecords = 0;
  uint64_t LiveBytes = 0; ///< Indexed record bytes (headers included).

  // Disk-tier extras.
  bool Disk = false; ///< The disk tier filled these stats (and the
                     ///< extras below).
  uint64_t Segments = 0;       ///< Readable current-version segments.
  uint64_t CorruptSkipped = 0; ///< Torn/corrupt records dropped.
  uint64_t StaleSegments = 0;  ///< Segments skipped: wrong magic/version.
  uint64_t DuplicateRecords = 0; ///< Redundant records seen by scans.
  uint64_t Compactions = 0;
  uint64_t CompactionRecordsDropped = 0;
  uint64_t RetentionEvictedSegments = 0; ///< Whole segments evicted by
                                         ///< the retention budget.

  /// One-line `key=value` rendering, stable for greps:
  /// "hits=2 range_hits=0 misses=1 stored=3 duplicates=0 declined=0
  /// evicted=0 records=3 bytes=712". The disk extras (`segments=` …
  /// `retention_evicted=`) are appended only when the tier maintains
  /// them (`Disk`), so a RAM cache's line stays short and every line's
  /// shape is fixed by its tier, never by its counts. Every front-end
  /// stats line is this text behind a "cache: "/"disk: "/"store: "
  /// prefix — the CI smokes grep it.
  std::string summary() const;
};

/// The pull-replication seam the disk tier exposes (see
/// serving/DiskCertStore.h for the source side and docs/ARCHITECTURE.md
/// for the protocol walk-through).
///
/// Source side: `serveReplicationPoll` answers "what follows cursor
/// (segment, offset)?" with raw record bytes in segment order. Replica
/// side: `applyReplicatedRecord` feeds a received record through the
/// store's normal validation path — checksum, verdict whitelist,
/// duplicate decline — so a corrupt or replayed delta degrades to a
/// skip, never to a wrong certificate.
class ReplicationEndpoint {
public:
  virtual ~ReplicationEndpoint() = default;

  /// A replica's cursor plus its interest filter.
  struct PollRequest {
    /// Where the replica stopped: a segment id and a record boundary
    /// inside it. The default (0, 0) starts at the oldest live segment.
    uint32_t Segment = 0;
    uint64_t Offset = 0;
    /// Dataset-fingerprint scope: only records whose key fingerprint
    /// matches are shipped (skipped records still advance the cursor).
    /// 0/0 = everything.
    uint64_t ScopeHi = 0;
    uint64_t ScopeLo = 0;
    uint32_t MaxRecords = 256; ///< Batch bound; the source may clamp.
  };

  enum class PollStatus : uint8_t {
    Delta = 0,       ///< `Records` follow the replica's cursor.
    Unavailable = 1, ///< No replicable store behind this endpoint.
  };

  /// One poll's answer. On `Delta`, `Records` holds whole serialized
  /// records (header + payload, exactly the on-disk bytes) and
  /// (`Segment`, `Offset`) is the cursor for the following poll;
  /// `AtHead` means the cursor reached the end of the newest segment,
  /// i.e. the replica is caught up.
  struct Delta {
    PollStatus Status = PollStatus::Unavailable;
    uint32_t Segment = 0;
    uint64_t Offset = 0;
    bool AtHead = false;
    std::vector<std::vector<uint8_t>> Records;
  };

  virtual Delta serveReplicationPoll(const PollRequest &Poll) = 0;

  /// What happened to one received record.
  enum class ApplyResult : uint8_t {
    Applied,   ///< Validated, appended, indexed.
    Duplicate, ///< Key already present — replays are no-ops.
    Corrupt,   ///< Failed the checksum/parse validation; skipped.
    Declined,  ///< Valid but not appended (an I/O failure).
  };

  /// Applies \p Size bytes of one serialized record (as shipped by
  /// `serveReplicationPoll`: record header + payload) to the local store.
  virtual ApplyResult applyReplicatedRecord(const uint8_t *Data,
                                            size_t Size) = 0;
};

/// The caching hook `Verifier::verify` talks to, and the one store
/// abstraction of the serving layer. The LRU/byte-budget, on-disk, and
/// tiered implementations live in serving/ (tests may substitute their
/// own).
///
/// Contract:
///  - A `lookup` hit must return a certificate previously passed to
///    `store` under a key that *soundly answers* the queried one: same
///    training-set fingerprint, same query bit pattern, a
///    `VerifierConfig` equal in every result-relevant field (Depth,
///    Domain, Threat, Cprob, Gini, DisjunctCap where the domain reads
///    it, and the three run-stopping `Limits` knobs), and a poisoning budget
///    that either matches exactly or is covered by the *range rule*:
///    a Robust certificate proven at radius N answers any budget
///    n <= N (∆n(T) ⊆ ∆N(T) — budgets nest under both threat models,
///    so the rule applies per model), an Unknown at radius N answers any
///    n >= N (the abstraction that failed at N fails a fortiori at a
///    wider radius), and a ResourceLimit answers only its exact
///    budget. A range-served certificate comes back with
///    `PoisoningBudget` rewritten to the queried n and
///    `CertifiedRadius` still naming the stored proof's radius.
///    The pool a query runs on, the cancellation token, and the `Cache`
///    pointer itself are certificate-irrelevant — certificates are
///    bit-identical across them — and must not distinguish keys.
///  - Writers (`Verifier::verify` and `CertServer`) only offer
///    deterministic verdicts for storage (Robust / Unknown /
///    ResourceLimit); wall-clock- or controller-dependent ones
///    (Timeout / Cancelled) are never cached, so a hit can never replay
///    a verdict a fresh run might not reproduce.
///  - Both calls may run concurrently from batch-pool or `CertServer`
///    workers, and `lookup` from the `NetServer` event loop too.
class CertificateStore {
public:
  virtual ~CertificateStore() = default;

  /// Fills \p Out and returns true when a certificate for exactly this
  /// (training set, query, budget, config) is stored.
  virtual bool lookup(const DatasetFingerprint &Data, const float *X,
                      unsigned NumFeatures, uint32_t PoisoningBudget,
                      const VerifierConfig &Config, Certificate &Out) = 0;

  /// Offers a freshly computed certificate for retention. The store may
  /// decline (byte budget); it must never mutate \p Cert.
  virtual void store(const DatasetFingerprint &Data, const float *X,
                     unsigned NumFeatures, uint32_t PoisoningBudget,
                     const VerifierConfig &Config,
                     const Certificate &Cert) = 0;

  /// Answers only from already-stored certificates — semantically a
  /// `lookup` that need not pay side effects a tier considers optional
  /// (promotion, recency). The default forwards to `lookup`. No serving
  /// path calls it (the network tier answers hits with `lookup`); it
  /// stays because perfbench/src/TimingStore.h overrides it.
  virtual bool probe(const DatasetFingerprint &Data, const float *X,
                     unsigned NumFeatures, uint32_t PoisoningBudget,
                     const VerifierConfig &Config, Certificate &Out) {
    return lookup(Data, X, NumFeatures, PoisoningBudget, Config, Out);
  }

  /// A consistent counter snapshot; the default (all-zero) suits
  /// compositions that keep no counts of their own (`TieredStore`: each
  /// tier counts behind its own handle) and test doubles.
  virtual StoreStats stats() const { return {}; }

  /// The replication seam: non-null only for the disk tier (a tiered
  /// composition forwards to it).
  virtual ReplicationEndpoint *replication() { return nullptr; }
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_CERTIFICATESTORE_H
