//===- serving/CertServer.h - Warm certificate-serving loop ----*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived serving subsystem the ROADMAP's north star asks for:
/// one warm `Verifier` (per-dataset acceleration structures built once),
/// `Jobs` worker threads, each running one query's frontier serially,
/// and one `CertificateStore`, behind a request queue so many clients can
/// stream queries at a single process. The server is deliberately
/// store-agnostic: it holds exactly one abstract `CertificateStore`
/// pointer and never names a concrete tier — the wiring layer composes
/// whatever it wants (a RAM `CertCache`, a `DiskCertStore`, both behind
/// a `TieredStore`, or nothing) and the server behaves identically.
///
/// Request path:
///
///   submit(x, n) ──▶ queue ──▶ Jobs workers ──▶ lookupStore ──hit──┐
///        │                  (each pops one         │miss            │
///        │                   request at a time)    ▼                │
///        │                               Verifier::verify, then     │
///        │                               store write-through        │
///        ▼                                         │                │
///   std::future ◀── promise + completion callback ◀┴────────────────┘
///
/// Queries are independent — each is its own abstract training run over
/// ∆n(T) — so a worker takes the next queued request the moment it is
/// free, and nothing waits behind a neighbour's verification. The server
/// consults its store itself, under its own `VerifierConfig`: a worker
/// asks `lookupStore` first and writes a fresh deterministic verdict
/// through afterwards, so a repeated query costs one store lookup
/// instead of a verification, and the served certificate is
/// byte-identical to the fresh one that seeded the entry (see
/// serving/CertCache.h for the invariants). The network tier calls the
/// same `lookupStore` on its event loop, so most hits never reach the
/// queue at all (serving/NetServer.h).
///
/// Shutdown: `stop()` (and the destructor) waits for the queue to drain —
/// every accepted future is always fulfilled. Submissions after `stop`
/// complete immediately with `VerdictKind::Cancelled`.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_CERTSERVER_H
#define ANTIDOTE_SERVING_CERTSERVER_H

#include "serving/CertificateStore.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace antidote {

/// Server-wide parameters.
struct CertServerConfig {
  /// Per-query verification parameters, shared by every request: depth,
  /// domain, threat model, and per-query `Limits`. Every store lookup
  /// and write uses exactly this config. The server clears `Cache` (it
  /// consults `Store` itself) and sets `Cancel` to each request's own
  /// cancellation token.
  VerifierConfig Query;

  /// Worker threads, each serving one queued request at a time
  /// (`resolveJobs`: 0 = one per hardware thread).
  unsigned Jobs = 0;

  /// The certificate store every verification consults and feeds —
  /// externally owned (it may outlive the server or be shared by
  /// several) and abstract on purpose: the server never knows whether
  /// it is a RAM `CertCache`, a `DiskCertStore`, a `TieredStore`
  /// composing both, or absent (null = every query verifies fresh).
  /// Composition is the wiring layer's job, not the server's.
  CertificateStore *Store = nullptr;
};

/// A long-lived certificate server for one training set.
///
/// Thread-safety: `submit`, `lookupStore`, and `pendingRequests` may be
/// called from any number of client threads. The returned future is
/// fulfilled by the worker that served the request; `get()` blocks until
/// then.
class CertServer {
public:
  CertServer(const Dataset &Train, const CertServerConfig &Config);

  /// Stops accepting, drains the queue, joins the workers.
  ~CertServer();

  CertServer(const CertServer &) = delete;
  CertServer &operator=(const CertServer &) = delete;

  /// Per-request options for the ticketed `submit` overload — what a
  /// network front end knows that the plain API does not.
  struct SubmitOptions {
    /// Remaining wall-clock budget the *client* granted this request,
    /// counted from submission — queue wait included, unlike the
    /// server-wide `Limits.TimeoutSeconds`, which a `ResourceMeter`
    /// only starts once verification begins. A request still queued
    /// when its deadline passes is answered `Timeout` without
    /// verifying; one a worker takes in time verifies under
    /// min(server timeout, remaining deadline). Like the cancellation
    /// token, the deadline stays outside the store key: the request
    /// looks up and stores under the server's own config. <= 0 = no
    /// deadline.
    double DeadlineSeconds = 0.0;

    /// Called from the serving worker immediately after the future is
    /// fulfilled, with the same certificate — the completion signal
    /// for event-loop callers that cannot block on futures. Must not
    /// block; must not call back into this server's submit/cancel
    /// paths synchronously with anything that would deadlock (pushing
    /// onto an external queue and signalling an eventfd is the
    /// intended shape — see serving/NetServer.cpp). Invoked exactly
    /// once for every accepted request, whatever its outcome.
    std::function<void(const Certificate &)> Completion;
  };

  /// Enqueues one query. \p X must hold exactly
  /// `verifier().trainingSet().numFeatures()` values (the CLI front end
  /// validates before submitting; this is the programmatic API's
  /// contract). The future is always eventually fulfilled. Forwards to
  /// the ticketed overload with default options.
  std::future<Certificate> submit(std::vector<float> X,
                                  uint32_t PoisoningBudget);

  /// The ticketed overload: like `submit`, plus per-request deadline
  /// and completion callback, and the request's ticket for
  /// `cancelRequest` (0 when refused after `stop`). Every request
  /// verifies under its own `CancellationToken`, so one client's
  /// cancellation never stops a neighbour's identical query.
  std::future<Certificate> submit(std::vector<float> X,
                                  uint32_t PoisoningBudget,
                                  SubmitOptions Options,
                                  uint64_t &TicketOut);

  /// Abandons a request — the lever a network front end pulls
  /// when the client disconnects mid-flight. A still-queued request is
  /// removed immediately (releasing its queue slot — admission control
  /// upstream watches `pendingRequests`) and fulfilled as `Cancelled`;
  /// an in-flight one has its token cancelled so the verification
  /// winds down at its next budget poll instead of running to
  /// completion for a reader that no longer exists. Returns false when
  /// the ticket is unknown or already served. The future (and
  /// completion callback) still resolve on every path — cancellation
  /// abandons the *work*, never the bookkeeping.
  bool cancelRequest(uint64_t Ticket);

  /// The server's one store lookup: `CertificateStore::lookup` under
  /// the server's own `Query` config — the same key, range rule, LRU
  /// touch and disk→RAM promotion a worker's lookup makes, so an answer
  /// from here is byte-identical to the worker-path answer. Never
  /// verifies, never touches the queue. The network tier calls it on
  /// its event loop before admission control, so a stored answer costs
  /// one lookup, not a trip through the queue. Safe from any thread;
  /// false when there is no store or no serving entry.
  bool lookupStore(const float *X, uint32_t PoisoningBudget,
                   Certificate &Out) const;

  /// The warm verifier (for its fingerprint, dataset, and direct
  /// cache-bypassing queries in tests).
  const Verifier &verifier() const { return V; }

  /// The store this server serves from (null when configured without
  /// one). Abstract by design — callers wanting stats go through
  /// `CertificateStore::stats`, and the replication front end through
  /// `CertificateStore::replication`.
  CertificateStore *store() const { return Config.Store; }

  /// Requests queued or being served (for monitoring/backpressure).
  size_t pendingRequests() const;

  /// Blocks until every already-submitted request has been served.
  void drain();

  /// Stops accepting new work, serves everything already queued, joins
  /// the workers. Idempotent; the destructor calls it.
  void stop();

  /// `stop()` for error paths that must exit promptly: additionally
  /// cancels queued and in-flight verification cooperatively, so
  /// already-running queries wind down at their next budget poll and
  /// every unserved future resolves quickly with
  /// `VerdictKind::Cancelled` (cache hits still resolve to their stored
  /// certificate). Every accepted future is still fulfilled. Idempotent.
  void abort();

private:
  struct Request {
    std::vector<float> X;
    uint32_t PoisoningBudget = 0;
    std::promise<Certificate> Promise;
    uint64_t Ticket = 0;
    bool HasDeadline = false;
    std::chrono::steady_clock::time_point Deadline{};
    /// Per-request cancellation, shared with `LiveTokens` so
    /// `cancelRequest`/`abort` reach it after the request leaves the
    /// queue.
    std::shared_ptr<CancellationToken> Cancel;
    std::function<void(const Certificate &)> Completion;
  };

  /// Fulfills \p R's promise and fires its completion callback (in that
  /// order — the callback may inspect the future's side effects).
  static void fulfill(Request &R, const Certificate &Cert);

  /// The verdict-only certificate for a request answered without
  /// verifying (\p Kind is `Cancelled` or `Timeout`).
  Certificate unserved(VerdictKind Kind, uint32_t PoisoningBudget) const;

  /// One worker's life: pop a request, `serve` it, repeat until stopped
  /// with the queue empty.
  void workerLoop();

  /// Turns one dequeued request into its certificate: an expired
  /// deadline answers `Timeout`, a store hit answers from the store, and
  /// a miss verifies under the request's own token and deadline-clamped
  /// limits, then writes a deterministic verdict through under the
  /// server's config. Drops the `LiveTokens` entry (after which
  /// `cancelRequest` returns false), then fulfills.
  void serve(Request &R);

  CertServerConfig Config;
  Verifier V;

  mutable std::mutex Mutex;
  std::condition_variable QueueChanged; ///< Signalled on submit/stop.
  std::condition_variable Idle;         ///< Signalled when work completes.
  std::deque<Request> Queue;
  size_t InFlight = 0; ///< Requests taken off the queue, not yet served.
  uint64_t NextTicket = 1; ///< Ticket source; 0 is reserved for "none".
  /// Every accepted-but-unserved request's token, queued or in flight,
  /// so `cancelRequest` (after the request left the queue) and `abort`
  /// can cancel it. Erased when the request is fulfilled.
  std::unordered_map<uint64_t, std::shared_ptr<CancellationToken>>
      LiveTokens;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_CERTSERVER_H
