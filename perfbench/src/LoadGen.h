//===- perfbench/src/LoadGen.h - Socket load generator -----------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the serving workloads, run on one thread:
///
///  - `runOpenLoop` sends request i at its due time whatever the server
///    is doing, sleeping (ppoll with a nanosecond timeout, timer slack
///    1 ns) until then and never spinning. Latency runs from the due
///    time, so a stall delays every later request's number too, and the
///    generator's own lateness is reported beside it.
///  - `runClosedLoop` keeps a fixed window in flight on each connection
///    and replaces every answered request at once.
///
/// Both stamp each request (due, sent, decoded) by tag, so the trace can
/// line client stamps up with the store-boundary spans.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_PERFBENCH_LOADGEN_H
#define ANTIDOTE_PERFBENCH_LOADGEN_H

#include "serving/NetProtocol.h"
#include "support/Net.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One client connection.
struct ClientConn {
  antidote::FdHandle Fd;
  antidote::FrameReader In{antidote::NetResponseMagic};
};

/// Connects to 127.0.0.1:\p Port; false (with \p Error) on failure.
bool connectClient(uint16_t Port, ClientConn &Out, std::string &Error);

/// Client stamps of one request, indexed by its tag.
struct RequestRecord {
  uint64_t Key = 0;       ///< `queryKey` of the request.
  int64_t DueNs = 0;      ///< Intended send time.
  int64_t SentNs = 0;     ///< When its frame went to the socket.
  int64_t DecodedNs = 0;  ///< When its response was decoded; 0 = none.
  double latencyUs() const { return (DecodedNs - DueNs) / 1e3; }
};

/// Encodes request \p Index (its tag) into \p Frame; returns its key.
using FrameFn = std::function<uint64_t(uint64_t Index, std::string &Frame)>;
/// Sees every decoded response with the index it answers.
using ResponseFn =
    std::function<void(uint64_t Index, const antidote::NetResponse &)>;

/// What one load phase measured.
struct LoadResult {
  std::vector<RequestRecord> Requests;
  uint64_t Issued = 0; ///< Requests sent.
  uint64_t Decoded = 0;
  /// Open loop: how late each send was against its due time (us).
  std::vector<double> LatenessUs;
  /// Closed loop: per time window, completions per second and server
  /// CPU (process minus this thread) per completion in microseconds.
  std::vector<double> WindowRps;
  std::vector<double> WindowCpuUs;
  std::string Error; ///< Non-empty when the connection broke.
};

/// Open loop at \p Rate requests/second for \p Seconds on one connection,
/// then waits (bounded) for the stragglers.
LoadResult runOpenLoop(ClientConn &Conn, double Rate, double Seconds,
                       const FrameFn &Frame, const ResponseFn &OnResponse);

/// The shape of one closed-loop phase.
struct ClosedLoop {
  unsigned Window = 1;   ///< Requests outstanding per connection.
  double Seconds = 1.0;  ///< How long new requests are issued.
  uint64_t MaxRequests = UINT64_MAX; ///< Or until this many were issued.
  unsigned Windows = 1;  ///< Equal time windows CPU and rate are read over.
  /// Without records they live in a small ring, so memory does not grow
  /// with throughput, and `LoadResult::Requests` is not meaningful.
  bool KeepRecords = false;
};

/// Runs \p Spec on \p Conns, replacing every answered request at once.
LoadResult runClosedLoop(std::vector<ClientConn *> Conns,
                         const ClosedLoop &Spec, const FrameFn &Frame,
                         const ResponseFn &OnResponse);

} // namespace perfbench

#endif // ANTIDOTE_PERFBENCH_LOADGEN_H
