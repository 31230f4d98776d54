//===- serving/Replicator.cpp - Pull-based store replication ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/Replicator.h"

#include "serving/NetProtocol.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace antidote;

Replicator::Replicator(CertificateStore &Local,
                       const ReplicatorConfig &Config)
    : Local(Local), Config(Config), Endpoint(Local.replication()) {}

Replicator::~Replicator() { stop(); }

bool Replicator::start(std::string &Error) {
  if (!Endpoint) {
    Error = "local store has no replication endpoint";
    return false;
  }
  if (Config.Port == 0) {
    Error = "replication source port must not be 0";
    return false;
  }
  // An unreachable source is not a start failure: the loop retries on
  // the poll interval, and the replica serves what it has meanwhile.
  Puller = std::thread([this] { loop(); });
  return true;
}

void Replicator::stop() {
  std::thread ToJoin;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
    // A poll blocked in recv sees the shutdown as EOF instead of
    // waiting out its timeout.
    if (Sock.valid())
      ::shutdown(Sock.get(), SHUT_RDWR);
    ToJoin = std::move(Puller); // Empty on every stop after the first.
  }
  StopChanged.notify_all();
  if (ToJoin.joinable())
    ToJoin.join();
}

ReplicatorStats Replicator::stats() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Stats;
}

void Replicator::loop() {
  for (;;) {
    bool More = false;
    std::string Error;
    pollOnce(More, Error);
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Stopping)
      return;
    if (More)
      continue; // Behind the head: catch up without sleeping.
    StopChanged.wait_for(
        Lock, std::chrono::duration<double>(Config.IntervalSeconds),
        [this] { return Stopping; });
    if (Stopping)
      return;
  }
}

bool Replicator::ensureConnected(std::string &Error) {
  // Caller holds the mutex.
  if (Sock.valid())
    return true;
  FdHandle Fresh = connectTcp(Config.Host, Config.Port, Error);
  if (!Fresh.valid())
    return false;
  // Bound every read: a wedged source must not pin the puller (or a
  // stop()) indefinitely. One second keeps shutdown prompt; the loop
  // retries a slow source on the next interval.
  timeval Timeout;
  Timeout.tv_sec = 1;
  Timeout.tv_usec = 0;
  ::setsockopt(Fresh.get(), SOL_SOCKET, SO_RCVTIMEO, &Timeout,
               sizeof(Timeout));
  Sock = std::move(Fresh);
  return true;
}

bool Replicator::pollOnce(bool &More, std::string &Error) {
  More = false;
  std::unique_lock<std::mutex> Lock(Mutex);
  if (Stopping)
    return false;
  auto Fail = [&](const std::string &Message) {
    Error = Message;
    ++Stats.Errors;
    Sock.reset();
    return false;
  };
  if (!ensureConnected(Error)) {
    ++Stats.Errors;
    return false;
  }

  ReplicationEndpoint::PollRequest Poll;
  Poll.Segment = Segment;
  Poll.Offset = Offset;
  Poll.ScopeHi = Config.ScopeHi;
  Poll.ScopeLo = Config.ScopeLo;
  Poll.MaxRecords = Config.MaxRecords;
  std::string Frame = encodeReplicationPollFrame(Poll);
  size_t Sent = 0;
  while (Sent < Frame.size()) {
    ssize_t N = ::send(Sock.get(), Frame.data() + Sent, Frame.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return Fail("cannot send poll: " + std::string(std::strerror(errno)));
    Sent += static_cast<size_t>(N);
  }

  // Block until the one response frame is whole. Delta frames carry a
  // record batch, hence the wider bound.
  FrameReader In(NetReplicationDeltaMagic, NetMaxDeltaFrameBytes);
  std::optional<std::vector<uint8_t>> Payload;
  while (!Payload) {
    uint8_t Buf[16384];
    ssize_t N = ::recv(Sock.get(), Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (Stopping)
        return Fail("stopping");
      return Fail("poll timed out");
    }
    if (N <= 0)
      return Fail("source closed the connection");
    if (!In.feed(Buf, static_cast<size_t>(N)))
      return Fail("corrupt delta stream");
    Payload = In.next();
  }
  std::optional<ReplicationEndpoint::Delta> Delta =
      decodeReplicationDeltaPayload(Payload->data(), Payload->size());
  if (!Delta)
    return Fail("undecodable delta frame");
  ++Stats.Polls;

  if (Delta->Status == ReplicationEndpoint::PollStatus::Unavailable)
    // The source has no replicable store. Not an error; poll again
    // later.
    return true;

  for (const std::vector<uint8_t> &Record : Delta->Records) {
    // The normal append path: full validation, duplicate decline. A
    // corrupt record is counted and skipped — the cursor still moves
    // past it, matching the source's serving rule.
    switch (Endpoint->applyReplicatedRecord(Record.data(), Record.size())) {
    case ReplicationEndpoint::ApplyResult::Applied:
      ++Stats.Applied;
      break;
    case ReplicationEndpoint::ApplyResult::Duplicate:
      ++Stats.Duplicates;
      break;
    case ReplicationEndpoint::ApplyResult::Corrupt:
      ++Stats.Corrupt;
      break;
    case ReplicationEndpoint::ApplyResult::Declined:
      // The local store refused (an I/O failure on append): do not
      // advance past the record, retry it next poll.
      ++Stats.Errors;
      Error = "local store declined a replicated record";
      return false;
    }
  }
  Segment = Delta->Segment;
  Offset = Delta->Offset;
  More = !Delta->AtHead;
  return true;
}
