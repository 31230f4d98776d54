//===- serving/Replicator.h - Pull-based store replication -----*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replica side of certificate-store replication: a background
/// puller that periodically sends `ReplicationPoll` frames to a source
/// `NetServer` (serving/NetProtocol.h) and applies the returned record
/// batches to the local store through
/// `ReplicationEndpoint::applyReplicatedRecord` — the normal
/// checksum-validated, duplicate-declining append path, so a corrupt or
/// replayed delta degrades to a skip, never a wrong certificate.
///
/// Verdicts are immutable once issued (the store key pins the dataset
/// fingerprint and every result-relevant config field), which makes
/// replication pure data-plane motion: there is no conflict to resolve,
/// only records to copy. The replica keeps a (segment, offset) cursor
/// into the source's segments; the source answers with the records after
/// it. When retention evicts the cursor's segment (or an open unlinks
/// it), the source resumes at the next live one, and any replays are
/// absorbed by the duplicate decline. Catch-up is greedy: until the
/// source reports the cursor at the head of its newest segment, the
/// puller polls again immediately instead of sleeping out the interval.
///
/// Failure policy: every network or framing error closes the connection,
/// counts one `Errors`, and retries after the poll interval — the
/// replica serves whatever it has meanwhile. `stop()` (and destruction)
/// interrupts the interval sleep and joins promptly.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_REPLICATOR_H
#define ANTIDOTE_SERVING_REPLICATOR_H

#include "serving/CertificateStore.h"
#include "support/Net.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace antidote {

struct ReplicatorConfig {
  /// Source host (name or address; resolved via getaddrinfo) and port —
  /// the `--replicate-from HOST:PORT` pair.
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;

  /// Seconds between polls when the replica is caught up (while behind
  /// it polls continuously). Also the reconnect backoff after an error.
  double IntervalSeconds = 1.0;

  /// Upper bound on records per delta; the source may cap it tighter.
  uint32_t MaxRecords = 256;

  /// Optional dataset-fingerprint scope (both 0 = replicate
  /// everything): only records whose key carries this fingerprint are
  /// shipped — a replica serving one model need not mirror the fleet.
  uint64_t ScopeHi = 0;
  uint64_t ScopeLo = 0;
};

/// Monotonic counters; the CLI prints them as the `repl:` line the CI
/// smoke greps.
struct ReplicatorStats {
  uint64_t Polls = 0;      ///< Poll round-trips completed.
  uint64_t Applied = 0;    ///< Records appended locally.
  uint64_t Duplicates = 0; ///< Records declined as already present.
  uint64_t Corrupt = 0;    ///< Records rejected by validation.
  uint64_t Errors = 0;     ///< Connection/framing/apply failures.
};

/// One replication puller for one local store. Thread-safe: `stats()`
/// from any thread; `start`/`stop` from the owning thread.
class Replicator {
public:
  /// \p Local must outlive this object and expose a replication
  /// endpoint (`CertificateStore::replication` non-null) — `start`
  /// fails otherwise, because a store that cannot apply raw records
  /// (a RAM cache, say) has no business pulling them.
  Replicator(CertificateStore &Local, const ReplicatorConfig &Config);
  ~Replicator();

  Replicator(const Replicator &) = delete;
  Replicator &operator=(const Replicator &) = delete;

  /// Launches the polling thread. False (with \p Error set) when the
  /// local store has no replication endpoint or the config is unusable;
  /// an unreachable source is *not* a start failure — the loop retries.
  bool start(std::string &Error);

  /// Interrupts the interval sleep, closes the connection, joins.
  /// Idempotent; the destructor calls it.
  void stop();

  /// One synchronous poll round-trip (test and CLI hook; do not mix
  /// with a running `start` thread). \p More is set when the source
  /// reported the cursor short of its head, i.e. the caller should
  /// poll again immediately to finish catching up. False on any
  /// connection/framing error (counted, connection closed).
  bool pollOnce(bool &More, std::string &Error);

  ReplicatorStats stats() const;

private:
  void loop();

  /// Connects (or reuses) the source socket. False with \p Error set.
  bool ensureConnected(std::string &Error);

  CertificateStore &Local;
  const ReplicatorConfig Config;
  ReplicationEndpoint *Endpoint = nullptr;

  mutable std::mutex Mutex; ///< Guards everything below.
  FdHandle Sock;
  uint32_t Segment = 0; ///< Cursor: source segment id...
  uint64_t Offset = 0;  ///< ...and the record boundary within it.
  ReplicatorStats Stats;
  bool Stopping = false;
  std::condition_variable StopChanged;
  std::thread Puller;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_REPLICATOR_H
