//===- serving/CertServer.cpp - Warm certificate-serving loop -----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/CertServer.h"

#include <algorithm>
#include <cassert>

using namespace antidote;

CertServer::CertServer(const Dataset &Train, const CertServerConfig &Config)
    : Config(Config), V(Train) {
  // The server owns the long-lived halves of the query config; whatever
  // the caller put there is replaced (`Cancel` per request, in `serve`).
  // The store is taken as configured — abstract, already composed by the
  // wiring layer — and consulted by the server itself (`lookupStore`,
  // then the write-through in `serve`), never from inside `verify`.
  this->Config.Query.Cache = nullptr;
  unsigned Jobs = resolveJobs(Config.Jobs);
  Workers.reserve(Jobs);
  for (unsigned I = 0; I < Jobs; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

CertServer::~CertServer() { stop(); }

void CertServer::fulfill(Request &R, const Certificate &Cert) {
  // Move the callback out first: set_value may unblock a waiter that
  // destroys the request's surroundings.
  std::function<void(const Certificate &)> Completion =
      std::move(R.Completion);
  R.Promise.set_value(Cert);
  if (Completion)
    Completion(Cert);
}

Certificate CertServer::unserved(VerdictKind Kind,
                                 uint32_t PoisoningBudget) const {
  Certificate Cert;
  Cert.Kind = Kind;
  Cert.PoisoningBudget = PoisoningBudget;
  Cert.Depth = Config.Query.Depth;
  Cert.Domain = Config.Query.Domain;
  Cert.Threat = Config.Query.Threat;
  return Cert;
}

std::future<Certificate> CertServer::submit(std::vector<float> X,
                                            uint32_t PoisoningBudget) {
  uint64_t Ticket;
  return submit(std::move(X), PoisoningBudget, SubmitOptions(), Ticket);
}

std::future<Certificate> CertServer::submit(std::vector<float> X,
                                            uint32_t PoisoningBudget,
                                            SubmitOptions Options,
                                            uint64_t &TicketOut) {
  assert(X.size() == V.trainingSet().numFeatures() &&
         "query arity must match the training set");
  Request R;
  R.X = std::move(X);
  R.PoisoningBudget = PoisoningBudget;
  R.Completion = std::move(Options.Completion);
  if (Options.DeadlineSeconds > 0.0) {
    R.HasDeadline = true;
    R.Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(Options.DeadlineSeconds));
  }
  std::future<Certificate> Result = R.Promise.get_future();
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    if (Stopping) {
      TicketOut = 0; // Nothing to cancel; the answer is already here.
      fulfill(R, unserved(VerdictKind::Cancelled, PoisoningBudget));
      return Result;
    }
    R.Ticket = NextTicket++;
    R.Cancel = std::make_shared<CancellationToken>();
    LiveTokens.emplace(R.Ticket, R.Cancel);
    TicketOut = R.Ticket;
    Queue.push_back(std::move(R));
  }
  QueueChanged.notify_one();
  return Result;
}

bool CertServer::cancelRequest(uint64_t Ticket) {
  Request Cancelled;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    auto Live = LiveTokens.find(Ticket);
    if (Live == LiveTokens.end())
      return false; // Unknown or already served.
    auto Queued = Queue.begin();
    while (Queued != Queue.end() && Queued->Ticket != Ticket)
      ++Queued;
    if (Queued == Queue.end()) {
      // In flight: the verification observes the token at its next
      // budget poll and reports Cancelled through the normal path.
      Live->second->cancel();
      return true;
    }
    // Still queued: release the slot now — admission control upstream
    // keys off the queue depth, and a dead client's request must not
    // hold capacity hostage, let alone get verified.
    Cancelled = std::move(*Queued);
    Queue.erase(Queued);
    LiveTokens.erase(Live);
  }
  fulfill(Cancelled,
          unserved(VerdictKind::Cancelled, Cancelled.PoisoningBudget));
  Idle.notify_all(); // A drain may have been waiting on this request.
  return true;
}

bool CertServer::lookupStore(const float *X, uint32_t PoisoningBudget,
                             Certificate &Out) const {
  CertificateStore *Store = Config.Store;
  return Store && Store->lookup(V.fingerprint(), X,
                                V.trainingSet().numFeatures(),
                                PoisoningBudget, Config.Query, Out);
}

void CertServer::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    QueueChanged.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      return; // Stopping, and nothing left to serve.
    Request R = std::move(Queue.front());
    Queue.pop_front();
    ++InFlight;
    Lock.unlock();
    serve(R);
    Lock.lock();
    --InFlight;
    Idle.notify_all();
  }
}

void CertServer::serve(Request &R) {
  // Expired while queued: answer Timeout without consuming a
  // verification (sound: Timeout claims nothing). Otherwise ask the store
  // — a neighbour may have stored this answer while the request queued —
  // and on a miss verify under the request's own token and
  // deadline-clamped limits, so one client's cancellation or deadline
  // never stops a neighbour's identical query.
  auto Now = std::chrono::steady_clock::now();
  Certificate Cert;
  if (R.HasDeadline && R.Deadline <= Now) {
    Cert = unserved(VerdictKind::Timeout, R.PoisoningBudget);
  } else if (!lookupStore(R.X.data(), R.PoisoningBudget, Cert)) {
    VerifierConfig C = Config.Query;
    C.Cancel = R.Cancel.get();
    if (R.HasDeadline) {
      double Remaining =
          std::chrono::duration<double>(R.Deadline - Now).count();
      C.Limits.TimeoutSeconds =
          C.Limits.TimeoutSeconds > 0
              ? std::min(C.Limits.TimeoutSeconds, Remaining)
              : Remaining;
    }
    Cert = V.verify(R.X.data(), R.PoisoningBudget, C);
    // Stored under the server's own config, like every lookup: the
    // clamped timeout is this request's budget, not a property of the
    // answer. A deadline can only cut a run short, and a cut-short run
    // reports Timeout, which is never stored — so any verdict stored
    // here is the one the unclamped run reaches.
    if (Config.Store && isDeterministicVerdict(Cert.Kind))
      Config.Store->store(V.fingerprint(), R.X.data(),
                          V.trainingSet().numFeatures(), R.PoisoningBudget,
                          Config.Query, Cert);
  }
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    LiveTokens.erase(R.Ticket);
  }
  fulfill(R, Cert);
}

size_t CertServer::pendingRequests() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Queue.size() + InFlight;
}

void CertServer::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
}

void CertServer::stop() {
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
    ToJoin.swap(Workers); // Empty on every stop after the first.
  }
  QueueChanged.notify_all();
  for (std::thread &Worker : ToJoin)
    Worker.join(); // Workers exit only once the queue is empty.
}

void CertServer::abort() {
  // Cancel first so the drain inside stop() is cheap: every queued or
  // in-flight verification observes its token and reports Cancelled
  // instead of running to completion. Stopping goes up under the same
  // lock, so no request can slip in with a token nobody cancelled.
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
    for (auto &Entry : LiveTokens)
      Entry.second->cancel();
  }
  stop();
}
