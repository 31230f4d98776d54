//===- serving/NetServer.cpp - Socket serving tier with admission -------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/NetServer.h"

#include <algorithm>
#include <cerrno>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace antidote;

NetServer::NetServer(CertServer &Server, const NetServerConfig &Config)
    : Server(Server), Config(Config) {}

NetServer::~NetServer() { stop(); }

bool NetServer::start(std::string &Error) {
  ListenResult Listen = listenTcpLoopback(Config.Port);
  if (!Listen.ok()) {
    Error = Listen.Error;
    return false;
  }
  if (!Poll.valid() || !Wake.valid()) {
    Error = "epoll/eventfd setup failed";
    return false;
  }
  ListenFd = std::move(Listen.Fd);
  ListenPort = Listen.Port;
  Poll.add(ListenFd.get(), ListenCookie);
  Poll.add(Wake.fd(), WakeCookie);
  Loop = std::thread([this] { loop(); });
  return true;
}

void NetServer::stop() {
  if (!Loop.joinable())
    return;
  Stopping.store(true, std::memory_order_release);
  Wake.signal();
  Loop.join();
}

NetServerStats NetServer::stats() const {
  NetServerStats S;
  S.Accepted = NumAccepted.load(std::memory_order_relaxed);
  S.RefusedClients = NumRefused.load(std::memory_order_relaxed);
  S.FramingErrors = NumFraming.load(std::memory_order_relaxed);
  S.Requests = NumRequests.load(std::memory_order_relaxed);
  S.Verified = NumVerified.load(std::memory_order_relaxed);
  S.Stored = NumStored.load(std::memory_order_relaxed);
  S.ShedOverload = NumShedOverload.load(std::memory_order_relaxed);
  S.ShedPaced = NumShedPaced.load(std::memory_order_relaxed);
  S.BadArity = NumBadArity.load(std::memory_order_relaxed);
  S.Cancelled = NumCancelled.load(std::memory_order_relaxed);
  S.ReplicationPolls = NumReplicationPolls.load(std::memory_order_relaxed);
  return S;
}

void NetServer::loop() {
  std::vector<EpollEvent> Events;
  bool ShuttingDown = false;
  for (;;) {
    if (!ShuttingDown && Stopping.load(std::memory_order_acquire)) {
      // Shutdown sequence: stop accepting, abandon every client (their
      // tickets are cancelled inside closeConn), then stay in the loop
      // only to collect the completions the CertServer still owes us —
      // it fulfills every accepted request, so this converges.
      ShuttingDown = true;
      if (ListenFd.valid()) {
        Poll.del(ListenFd.get());
        ListenFd.reset();
      }
      std::vector<uint64_t> Ids;
      Ids.reserve(Conns.size());
      for (const auto &Entry : Conns)
        Ids.push_back(Entry.first);
      for (uint64_t Id : Ids)
        closeConn(Id, /*Framing=*/false);
    }
    if (ShuttingDown) {
      drainCompletions();
      if (OutstandingTickets == 0)
        return;
    }
    // The timeout bounds how long a stop() can go unnoticed; all normal
    // traffic wakes the loop through readiness or the eventfd.
    if (!Poll.wait(Events, 100))
      Events.clear();
    for (const EpollEvent &E : Events) {
      if (E.Data == ListenCookie) {
        if (!ShuttingDown)
          acceptClients();
        continue;
      }
      if (E.Data == WakeCookie) {
        Wake.drain();
        drainCompletions();
        continue;
      }
      // Conn cookies are monotonic and never reused, so an event for an
      // already-closed connection simply misses the map.
      if (!Conns.count(E.Data))
        continue;
      if (E.Closed) {
        closeConn(E.Data, /*Framing=*/false);
        continue;
      }
      if (E.Readable)
        readable(E.Data);
      if (E.Writable && Conns.count(E.Data))
        writable(E.Data);
    }
  }
}

void NetServer::acceptClients() {
  for (;;) {
    int Raw = ::accept4(ListenFd.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Raw < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN and transient errors alike: retry on readiness.
    }
    FdHandle Fd(Raw);
    if (Config.MaxClients && Conns.size() >= Config.MaxClients) {
      NumRefused.fetch_add(1, std::memory_order_relaxed);
      continue; // FdHandle closes it — refusal is the whole response.
    }
    int One = 1;
    ::setsockopt(Fd.get(), IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    uint64_t Id = NextConnId++;
    int RawFd = Fd.get();
    Conns.emplace(Id, Conn(std::move(Fd), Config.ClientBurst,
                           std::chrono::steady_clock::now()));
    Poll.add(RawFd, Id);
    NumAccepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::readable(uint64_t ConnId) {
  auto It = Conns.find(ConnId);
  if (It == Conns.end())
    return;
  Conn &C = It->second;
  uint8_t Buf[4096];
  for (;;) {
    ssize_t N = ::recv(C.Fd.get(), Buf, sizeof(Buf), 0);
    if (N > 0) {
      if (!C.In.feed(Buf, static_cast<size_t>(N))) {
        closeConn(ConnId, /*Framing=*/true);
        return;
      }
      continue;
    }
    if (N == 0) { // Orderly EOF. A frame cut short is a framing error.
      closeConn(ConnId, /*Framing=*/C.In.midFrame());
      return;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    closeConn(ConnId, /*Framing=*/false);
    return;
  }
  while (std::optional<FrameReader::Frame> Frame = C.In.nextFrame()) {
    if (Frame->Magic == NetReplicationPollMagic) {
      std::optional<ReplicationEndpoint::PollRequest> Poll =
          decodeReplicationPollPayload(Frame->Payload.data(),
                                       Frame->Payload.size());
      if (!Poll) {
        closeConn(ConnId, /*Framing=*/true);
        return;
      }
      handleReplicationPoll(C, *Poll);
    } else {
      std::optional<NetRequest> Request =
          decodeRequestPayload(Frame->Payload.data(), Frame->Payload.size());
      if (!Request) {
        closeConn(ConnId, /*Framing=*/true);
        return;
      }
      handleRequest(ConnId, C, *Request);
    }
    if (!Conns.count(ConnId)) // flushOut may have lost the peer.
      return;
  }
  flushOut(ConnId, C);
}

void NetServer::writable(uint64_t ConnId) {
  auto It = Conns.find(ConnId);
  if (It != Conns.end())
    flushOut(ConnId, It->second);
}

void NetServer::handleRequest(uint64_t ConnId, Conn &C,
                              const NetRequest &Request) {
  NumRequests.fetch_add(1, std::memory_order_relaxed);
  NetResponse Response;
  Response.Tag = Request.Tag;

  // Gate 1: the frame is honest but the query is unanswerable.
  const Dataset &Train = Server.verifier().trainingSet();
  if (Request.X.size() != Train.numFeatures() ||
      Request.PoisoningBudget > Train.numRows()) {
    Response.Status = NetStatus::Error;
    Response.ErrorReason = Request.X.size() != Train.numFeatures()
                               ? NetErrorReason::BadArity
                               : NetErrorReason::BadBudget;
    NumBadArity.fetch_add(1, std::memory_order_relaxed);
    sendResponse(C, Response);
    return;
  }

  // A stored answer costs one lookup here, on the loop: no token, no
  // queue, no worker, no wake-up. The gates below ration verification,
  // and a hit needs none.
  if (Server.lookupStore(Request.X.data(), Request.PoisoningBudget,
                         Response.Cert)) {
    Response.Status = NetStatus::Ok;
    Response.Path = NetServePath::Stored;
    NumStored.fetch_add(1, std::memory_order_relaxed);
    sendResponse(C, Response);
    return;
  }

  // Gate 2: per-client pacing. Refill first so a client that waited
  // earns its tokens back; admission below spends one.
  bool Paced = false;
  if (Config.ClientRate > 0.0) {
    auto Now = std::chrono::steady_clock::now();
    double Elapsed =
        std::chrono::duration<double>(Now - C.LastRefill).count();
    C.Tokens = std::min(Config.ClientBurst,
                        C.Tokens + Elapsed * Config.ClientRate);
    C.LastRefill = Now;
    Paced = C.Tokens < 1.0;
  }

  // Gate 3: queue-depth load shedding.
  bool Overloaded =
      Config.ShedDepth && Server.pendingRequests() >= Config.ShedDepth;

  if (Paced || Overloaded) {
    // Shed *before* verification: the store has just missed, so this is
    // an explicit refusal, never a fabricated verdict.
    Response.Status = NetStatus::Shed;
    Response.ShedReason =
        Overloaded ? NetShedReason::Overload : NetShedReason::Paced;
    (Overloaded ? NumShedOverload : NumShedPaced)
        .fetch_add(1, std::memory_order_relaxed);
    sendResponse(C, Response);
    return;
  }

  // Admission: spend a token, submit ticketed, answer on completion.
  if (Config.ClientRate > 0.0)
    C.Tokens -= 1.0;
  CertServer::SubmitOptions Options;
  Options.DeadlineSeconds = Request.DeadlineMillis / 1000.0;
  uint64_t Tag = Request.Tag;
  Options.Completion = [this, ConnId, Tag](const Certificate &Cert) {
    // Signal under the lock: once the loop can see this completion it
    // may be the last one a stopping server waits for, after which the
    // NetServer (and its eventfd) may be destroyed.
    std::lock_guard<std::mutex> Guard(CompletionMutex);
    Completions.push_back(Completion{ConnId, Tag, Cert});
    Wake.signal();
  };
  uint64_t Ticket = 0;
  // The future is deliberately dropped: the completion callback is the
  // event loop's signal, and the promise keeps the state alive.
  Server.submit(Request.X, Request.PoisoningBudget, std::move(Options),
                Ticket);
  C.Pending.emplace(Tag, Ticket);
  ++OutstandingTickets;
}

void NetServer::handleReplicationPoll(
    Conn &C, const ReplicationEndpoint::PollRequest &Poll) {
  NumReplicationPolls.fetch_add(1, std::memory_order_relaxed);
  // Unavailable is the honest default: no store, or a store (a RAM
  // cache, say) with no replication face. The replica treats it like a
  // transient error and keeps polling.
  ReplicationEndpoint::Delta Delta;
  CertificateStore *Store = Server.store();
  ReplicationEndpoint *Endpoint = Store ? Store->replication() : nullptr;
  if (Endpoint)
    Delta = Endpoint->serveReplicationPoll(Poll);
  C.Out += encodeReplicationDeltaFrame(Delta);
}

void NetServer::drainCompletions() {
  std::vector<Completion> Batch;
  {
    std::lock_guard<std::mutex> Guard(CompletionMutex);
    Batch.swap(Completions);
  }
  for (const Completion &Done : Batch) {
    --OutstandingTickets;
    auto It = Conns.find(Done.ConnId);
    if (It == Conns.end())
      continue; // Client left; its verification was already cancelled.
    Conn &C = It->second;
    auto Entry = C.Pending.find(Done.Tag);
    if (Entry != C.Pending.end())
      C.Pending.erase(Entry);
    NetResponse Response;
    Response.Tag = Done.Tag;
    Response.Status = NetStatus::Ok;
    Response.Path = NetServePath::Verified;
    Response.Cert = Done.Cert;
    NumVerified.fetch_add(1, std::memory_order_relaxed);
    sendResponse(C, Response);
    flushOut(Done.ConnId, C);
  }
}

void NetServer::sendResponse(Conn &C, const NetResponse &Response) {
  C.Out += encodeResponseFrame(Response);
}

void NetServer::flushOut(uint64_t ConnId, Conn &C) {
  while (C.OutPos < C.Out.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-response must cost EPIPE on
    // this connection, not SIGPIPE for the process.
    ssize_t N = ::send(C.Fd.get(), C.Out.data() + C.OutPos,
                       C.Out.size() - C.OutPos, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      continue;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!C.WantWrite) {
        Poll.mod(C.Fd.get(), ConnId, /*Write=*/true);
        C.WantWrite = true;
      }
      return;
    }
    closeConn(ConnId, /*Framing=*/false);
    return;
  }
  C.Out.clear();
  C.OutPos = 0;
  if (C.WantWrite) {
    Poll.mod(C.Fd.get(), ConnId, /*Write=*/false);
    C.WantWrite = false;
  }
}

void NetServer::closeConn(uint64_t ConnId, bool Framing) {
  auto It = Conns.find(ConnId);
  if (It == Conns.end())
    return;
  Conn &C = It->second;
  // Abandoned requests must not keep verifying for a reader that no
  // longer exists: a queued one frees its slot now, an in-flight one
  // has its token cancelled. The completions still arrive (and are
  // dropped above) — cancellation abandons work, not bookkeeping.
  for (const auto &Pending : C.Pending)
    if (Pending.second && Server.cancelRequest(Pending.second))
      NumCancelled.fetch_add(1, std::memory_order_relaxed);
  if (Framing)
    NumFraming.fetch_add(1, std::memory_order_relaxed);
  Poll.del(C.Fd.get());
  Conns.erase(It);
}
