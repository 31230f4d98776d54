//===- perfbench/src/LoadGen.cpp - Socket load generator ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"

#include "Inputs.h"
#include "Stats.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>

using namespace antidote;
using namespace perfbench;

namespace {

/// How long a phase waits for answers still in flight when it ends.
constexpr int64_t DrainNs = 30 * 1000000000LL;

bool sendAll(int Fd, const std::string &Bytes, std::string &Error) {
  size_t Pos = 0;
  while (Pos < Bytes.size()) {
    ssize_t N =
        ::send(Fd, Bytes.data() + Pos, Bytes.size() - Pos, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Pos += static_cast<size_t>(N);
  }
  return true;
}

/// Reads what the socket holds without blocking and hands every whole
/// response to \p OnDecoded. False (with \p Error) when the stream broke.
bool readResponses(ClientConn &C,
                   const std::function<void(const NetResponse &)> &OnDecoded,
                   std::string &Error) {
  uint8_t Buf[1 << 16];
  for (;;) {
    ssize_t N = ::recv(C.Fd.get(), Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N == 0) {
      Error = "server closed the connection";
      return false;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return true;
      Error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (!C.In.feed(Buf, static_cast<size_t>(N))) {
      Error = "corrupt response stream";
      return false;
    }
    while (std::optional<std::vector<uint8_t>> Payload = C.In.next()) {
      std::optional<NetResponse> Response =
          decodeResponsePayload(Payload->data(), Payload->size());
      if (!Response) {
        Error = "undecodable response payload";
        return false;
      }
      OnDecoded(*Response);
    }
    if (static_cast<size_t>(N) < sizeof(Buf))
      return true;
  }
}

timespec toTimespec(int64_t Ns) {
  timespec T;
  T.tv_sec = static_cast<time_t>(Ns / 1000000000);
  T.tv_nsec = static_cast<long>(Ns % 1000000000);
  return T;
}

} // namespace

bool perfbench::connectClient(uint16_t Port, ClientConn &Out,
                              std::string &Error) {
  Out.Fd = connectTcpLoopback(Port);
  if (!Out.Fd.valid()) {
    Error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  return true;
}

LoadResult perfbench::runOpenLoop(ClientConn &Conn, double Rate,
                                  double Seconds, const FrameFn &Frame,
                                  const ResponseFn &OnResponse) {
  LoadResult R;
  uint64_t Total = static_cast<uint64_t>(std::llround(Rate * Seconds));
  R.Requests.resize(Total);
  R.LatenessUs.reserve(Total);
  std::string FrameBuf;
  auto OnDecoded = [&](const NetResponse &Response) {
    if (Response.Tag >= Total || R.Requests[Response.Tag].DecodedNs)
      return;
    R.Requests[Response.Tag].DecodedNs = nowNs();
    ++R.Decoded;
    OnResponse(Response.Tag, Response);
  };

  int64_t Start = nowNs() + 1000000;
  int64_t GiveUp = Start + openLoopDueNs(Total, Rate) + DrainNs;
  uint64_t Next = 0;
  pollfd Poll{Conn.Fd.get(), POLLIN, 0};
  while (R.Decoded < Total) {
    int64_t Now = nowNs();
    if (Now > GiveUp) {
      R.Error = "responses still missing after the drain timeout";
      break;
    }
    while (Next < Total && Start + openLoopDueNs(Next, Rate) <= Now) {
      RequestRecord &Rec = R.Requests[Next];
      Rec.Key = Frame(Next, FrameBuf);
      Rec.DueNs = Start + openLoopDueNs(Next, Rate);
      Rec.SentNs = nowNs();
      R.LatenessUs.push_back((Rec.SentNs - Rec.DueNs) / 1e3);
      if (!sendAll(Conn.Fd.get(), FrameBuf, R.Error))
        return R;
      R.Issued = ++Next;
      Now = nowNs();
    }
    int64_t WaitNs = Next < Total
                         ? Start + openLoopDueNs(Next, Rate) - nowNs()
                         : 100000000;
    timespec Timeout = toTimespec(WaitNs > 0 ? WaitNs : 0);
    Poll.revents = 0;
    int Ready = ::ppoll(&Poll, 1, &Timeout, nullptr);
    if (Ready < 0 && errno != EINTR) {
      R.Error = std::string("ppoll: ") + std::strerror(errno);
      break;
    }
    if (Ready > 0 && !readResponses(Conn, OnDecoded, R.Error))
      break;
  }
  return R;
}

LoadResult perfbench::runClosedLoop(std::vector<ClientConn *> Conns,
                                    const ClosedLoop &Spec,
                                    const FrameFn &Frame,
                                    const ResponseFn &OnResponse) {
  const unsigned Window = Spec.Window;
  const bool KeepRecords = Spec.KeepRecords;
  LoadResult R;
  std::string FrameBuf, Batch;
  std::vector<pollfd> Polls(Conns.size());
  for (size_t I = 0; I < Conns.size(); ++I)
    Polls[I] = pollfd{Conns[I]->Fd.get(), POLLIN, 0};

  // Ring mode: a slot is reused only after its request completed, since
  // at most Window x Conns requests are ever outstanding.
  uint64_t RingMask = 0;
  if (!KeepRecords) {
    uint64_t Ring = 1;
    while (Ring < 2ull * Window * Conns.size())
      Ring <<= 1;
    R.Requests.resize(Ring);
    RingMask = Ring - 1;
  }
  auto Slot = [&](uint64_t Index) -> RequestRecord & {
    return R.Requests[KeepRecords ? Index : Index & RingMask];
  };

  int64_t Start = nowNs();
  int64_t End = Start + static_cast<int64_t>(Spec.Seconds * 1e9);
  int64_t WindowNs = (End - Start) / Spec.Windows;
  int64_t NextBoundary = Start + WindowNs;
  int64_t WindowStart = Start;
  double WindowCpu = processCpuSeconds() - threadCpuSeconds();
  uint64_t WindowDone = 0;
  uint64_t Issued = 0;
  size_t Outstanding = 0;

  // Appends the next request to `Batch`, stamped as sent at \p Now.
  auto Enqueue = [&](int64_t Now) {
    if (KeepRecords)
      R.Requests.emplace_back();
    RequestRecord &Rec = Slot(Issued);
    Rec = RequestRecord();
    Rec.Key = Frame(Issued, FrameBuf);
    Rec.DueNs = Rec.SentNs = Now;
    R.Issued = ++Issued;
    Batch += FrameBuf;
    ++Outstanding;
  };

  for (ClientConn *C : Conns) {
    Batch.clear();
    int64_t Now = nowNs();
    for (unsigned I = 0; I < Window && Issued < Spec.MaxRequests; ++I)
      Enqueue(Now);
    if (!sendAll(C->Fd.get(), Batch, R.Error))
      return R;
  }

  while (Outstanding > 0) {
    int64_t Now = nowNs();
    if (Now > End + DrainNs) {
      R.Error = "responses still missing after the drain timeout";
      break;
    }
    int64_t WaitNs = Now < End ? std::min<int64_t>(NextBoundary - Now,
                                                   100000000)
                               : 100000000;
    timespec Timeout = toTimespec(WaitNs > 0 ? WaitNs : 0);
    for (pollfd &P : Polls)
      P.revents = 0;
    int Ready = ::ppoll(Polls.data(), Polls.size(), &Timeout, nullptr);
    if (Ready < 0 && errno != EINTR) {
      R.Error = std::string("ppoll: ") + std::strerror(errno);
      break;
    }
    for (size_t I = 0; I < Conns.size() && Ready > 0; ++I) {
      if (!Polls[I].revents)
        continue;
      Batch.clear();
      int64_t Decoded = 0;
      auto OnDecoded = [&](const NetResponse &Response) {
        if (Response.Tag >= Issued || Slot(Response.Tag).DecodedNs)
          return;
        if (!Decoded)
          Decoded = nowNs();
        Slot(Response.Tag).DecodedNs = Decoded;
        ++R.Decoded;
        --Outstanding;
        OnResponse(Response.Tag, Response);
        if (Decoded >= End)
          return;
        ++WindowDone;
        if (Issued < Spec.MaxRequests)
          Enqueue(Decoded);
      };
      if (!readResponses(*Conns[I], OnDecoded, R.Error))
        return R;
      if (!Batch.empty() && !sendAll(Conns[I]->Fd.get(), Batch, R.Error))
        return R;
    }
    Now = nowNs();
    if (Now >= NextBoundary && R.WindowRps.size() < Spec.Windows) {
      double Cpu = processCpuSeconds() - threadCpuSeconds();
      if (WindowDone) {
        // Completions after `End` are not counted, so neither is the
        // time after it.
        int64_t Closed = std::min(Now, End);
        R.WindowRps.push_back(WindowDone / ((Closed - WindowStart) / 1e9));
        R.WindowCpuUs.push_back((Cpu - WindowCpu) * 1e6 / WindowDone);
      }
      WindowStart = Now;
      WindowCpu = Cpu;
      WindowDone = 0;
      NextBoundary += WindowNs;
    }
  }
  return R;
}
