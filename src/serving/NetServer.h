//===- serving/NetServer.h - Socket serving tier with admission -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front end of the serving stack: one epoll event-loop
/// thread multiplexing many concurrent TCP clients in front of a
/// `CertServer`, speaking the length-prefixed protocol of
/// serving/NetProtocol.h. The loop never verifies anything itself — it
/// frames, admits, submits, and writes back; all verification runs on
/// the CertServer's workers.
///
///   clients ──▶ epoll loop ──▶ admission control ──▶ CertServer::submit
///                  ▲                  │                  (ticketed)
///                  │                  ├─ paced/overloaded ─▶ store
///                  │                  │   probe; hit ⇒ Ok/ShedProbe,
///                  │                  │   miss ⇒ explicit Shed
///                  │                  ▼
///               WakeFd ◀── completion callback (CertServer worker)
///
/// ## Admission control
///
/// Three gates, in order, per well-framed request:
///
///  1. *Arity*: a feature count not matching the training set answers
///     `Error/BadArity` (the frame was honest; only the query is wrong).
///  2. *Pacing*: each connection owns a token bucket (`ClientRate`
///     tokens/second, capacity `ClientBurst`); an empty bucket means
///     this client is over its fair share. `ClientRate` 0 = unpaced.
///  3. *Load*: when `CertServer::pendingRequests()` has reached
///     `ShedDepth`, the verification queue is saturated. 0 = never shed.
///
/// A request failing gate 2 or 3 is *not* dropped silently and *never*
/// receives a fabricated verdict: the server first probes the
/// certificate store (`CertServer::probeStore` — RAM and disk tiers,
/// range rule included, no verification, no queue), and answers
/// `Ok/ShedProbe` on a hit; otherwise the client gets an explicit
/// `Shed` frame naming the reason. Under overload the server thus keeps
/// answering everything it already knows while refusing new work —
/// shedding costs a hash probe, not a verification.
///
/// Admitted requests consume one token and are submitted ticketed, with
/// the client's `deadlineMillis` propagated (queue wait counts; an
/// expired request answers `Timeout` without verifying, a live one
/// verifies under min(server timeout, remaining)). When a client
/// disconnects, every ticket it still owns is `cancelRequest`ed — a
/// queued request frees its slot immediately, an in-flight one winds
/// down at its next budget poll. Nobody verifies for a dead socket.
///
/// ## Robustness
///
/// Torn frames are just buffered bytes (FrameReader). A framing
/// violation (bad magic, oversize length, undecodable payload) costs
/// exactly that one connection — close, count, carry on. A slow-loris
/// client trickling a frame holds only its own buffer, never the loop.
/// Backpressure on the write side is epoll-driven: unsent response
/// bytes park in the connection's out-buffer and drain on EPOLLOUT.
///
/// `stop()` closes the listener and every connection, cancels all
/// outstanding tickets, then joins the loop once every completion
/// callback has reported home (the CertServer always fulfills). The
/// CertServer must outlive the NetServer.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_NETSERVER_H
#define ANTIDOTE_SERVING_NETSERVER_H

#include "serving/CertServer.h"
#include "serving/NetProtocol.h"
#include "support/Net.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace antidote {

/// Network-tier parameters (the CLI exposes each as a flag + env twin).
struct NetServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 = kernel-assigned (tests and CI
  /// read it back via `port()`).
  uint16_t Port = 0;

  /// Concurrent-connection cap; an accept beyond it is closed
  /// immediately (counted, never serviced). 0 = unbounded.
  size_t MaxClients = 64;

  /// Queue depth (`CertServer::pendingRequests`) at which new
  /// verification work is shed. 0 = never shed.
  size_t ShedDepth = 0;

  /// Per-connection token-bucket refill rate, tokens (= admitted
  /// verifications) per second. 0 = unpaced.
  double ClientRate = 0.0;

  /// Token-bucket capacity: how many requests a client may burst before
  /// pacing bites. Also the bucket's starting balance.
  double ClientBurst = 8.0;
};

/// Monotonic ops/test counters. Snapshot via `NetServer::stats()`; the
/// CLI prints them as the `net:` line the CI smoke greps.
struct NetServerStats {
  uint64_t Accepted = 0;       ///< Connections admitted to the loop.
  uint64_t RefusedClients = 0; ///< Accepts closed over MaxClients.
  uint64_t FramingErrors = 0;  ///< Connections closed for bad framing.
  uint64_t Requests = 0;       ///< Well-framed requests decoded.
  uint64_t Verified = 0;       ///< Ok responses via the verify path.
  uint64_t ProbeHits = 0;      ///< Ok responses via the shed-path probe.
  uint64_t ShedOverload = 0;   ///< Shed frames: queue past ShedDepth.
  uint64_t ShedPaced = 0;      ///< Shed frames: client bucket empty.
  uint64_t BadArity = 0;       ///< Error frames: feature-count mismatch.
  uint64_t Cancelled = 0;      ///< Tickets cancelled for disconnects.
  uint64_t ReplicationPolls = 0; ///< Replication polls answered.
};

/// The epoll front end. Construct, `start()`, read `port()`, serve until
/// `stop()` (or destruction). All methods are safe from the owning
/// thread; `stats()` from any thread.
class NetServer {
public:
  /// \p Server must outlive this object.
  NetServer(CertServer &Server, const NetServerConfig &Config);
  ~NetServer();

  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// Binds, listens, and launches the event-loop thread. False (with
  /// \p Error set) when the port cannot be bound — the caller exits 2,
  /// same as any other unusable resource.
  bool start(std::string &Error);

  /// The bound port (after port-0 readback). Valid once start() returned
  /// true.
  uint16_t port() const { return ListenPort; }

  /// Stops accepting, cancels every outstanding ticket, closes all
  /// connections, joins the loop. Idempotent; the destructor calls it.
  void stop();

  NetServerStats stats() const;

private:
  /// Per-connection state, owned by the loop thread.
  struct Conn {
    FdHandle Fd;
    FrameReader In;
    std::string Out;     ///< Unwritten response bytes.
    size_t OutPos = 0;   ///< Consumed prefix of `Out`.
    bool WantWrite = false; ///< EPOLLOUT currently requested.
    double Tokens = 0.0; ///< Token-bucket balance.
    std::chrono::steady_clock::time_point LastRefill;
    /// Tag -> ticket of every in-flight submission (multimap: tags are
    /// client-chosen and may repeat).
    std::unordered_multimap<uint64_t, uint64_t> Pending;

    /// Dual-magic reader: one connection may interleave query frames
    /// ("ANTQ") and replication polls ("ANTP") — the loop dispatches by
    /// each frame's magic.
    explicit Conn(FdHandle Fd, double Burst,
                  std::chrono::steady_clock::time_point Now)
        : Fd(std::move(Fd)),
          In(NetRequestMagic, NetReplicationPollMagic, NetMaxFrameBytes),
          Tokens(Burst), LastRefill(Now) {}
  };

  /// One fulfilled verification travelling from a CertServer worker
  /// back to the loop.
  struct Completion {
    uint64_t ConnId = 0;
    uint64_t Tag = 0;
    Certificate Cert;
  };

  void loop();
  void acceptClients();
  void readable(uint64_t ConnId);
  void writable(uint64_t ConnId);
  void handleRequest(uint64_t ConnId, Conn &C, const NetRequest &Request);

  /// Answers one replication poll synchronously from the server's
  /// store endpoint (at most a batch of record preads — no
  /// verification, so it cannot starve the queue). A store without a
  /// replication face answers `Unavailable`.
  void handleReplicationPoll(Conn &C,
                             const ReplicationEndpoint::PollRequest &Poll);
  void drainCompletions();
  void sendResponse(Conn &C, const NetResponse &Response);
  void flushOut(uint64_t ConnId, Conn &C);
  void closeConn(uint64_t ConnId, bool Framing);

  CertServer &Server;
  NetServerConfig Config;
  FdHandle ListenFd;
  uint16_t ListenPort = 0;
  Epoll Poll;
  WakeFd Wake;
  std::thread Loop;
  std::atomic<bool> Stopping{false};

  /// Loop-thread state. ConnIds are monotonic cookies (never reused fd
  /// numbers), so a stale epoll event can never hit a newer connection.
  std::unordered_map<uint64_t, Conn> Conns;
  uint64_t NextConnId = FirstConnId;
  size_t OutstandingTickets = 0; ///< Submissions not yet completed.

  std::mutex CompletionMutex;
  std::vector<Completion> Completions; ///< Guarded by CompletionMutex.

  /// Counters (relaxed atomics: written by the loop, read by anyone).
  std::atomic<uint64_t> NumAccepted{0}, NumRefused{0}, NumFraming{0},
      NumRequests{0}, NumVerified{0}, NumProbeHits{0}, NumShedOverload{0},
      NumShedPaced{0}, NumBadArity{0}, NumCancelled{0}, NumReplicationPolls{0};

  static constexpr uint64_t ListenCookie = 0;
  static constexpr uint64_t WakeCookie = 1;
  static constexpr uint64_t FirstConnId = 2;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_NETSERVER_H
