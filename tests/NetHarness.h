//===- tests/NetHarness.h - Fault-injection protocol client -----*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first-class test client behind tests/NetServerTests.cpp and
/// tests/NetShedTests.cpp: a blocking-socket protocol speaker whose whole
/// point is sending *wrong* things on purpose — torn frames cut at any
/// byte offset, garbage headers, a single byte then silence (slow
/// loris), a clean disconnect with requests still in flight — while
/// still being able to speak the protocol correctly for the happy-path
/// assertions. Deterministic: no sleeps for correctness, every wait is
/// a poll() with an explicit deadline, so ctest runs are stable under
/// load and sanitizers.
///
/// Built as a small static library (not a test executable — see the
/// CMake exclusion) and linked into the network test suites.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_TESTS_NETHARNESS_H
#define ANTIDOTE_TESTS_NETHARNESS_H

#include "serving/CertificateStore.h"
#include "serving/NetProtocol.h"
#include "support/Net.h"

#include <condition_variable>
#include <mutex>

namespace antidote {
namespace testharness {

/// A `CertificateStore` test double whose `store` blocks while the gate
/// is closed — the deterministic way to pin fresh verifications
/// "in flight" (they finish computing, then wait in the write-through)
/// and saturate a CertServer's queue without sleeping. `lookup` always
/// misses and never blocks, so the event loop's inline store lookup
/// cannot be stalled by it; RAM-tier hits in front of this store behave
/// normally. Tests MUST `open()` the gate before tearing
/// the server down, or shutdown's drain waits forever.
class GateStore : public CertificateStore {
public:
  bool lookup(const DatasetFingerprint &, const float *, unsigned,
              uint32_t, const VerifierConfig &, Certificate &) override {
    return false;
  }

  void store(const DatasetFingerprint &, const float *, unsigned, uint32_t,
             const VerifierConfig &, const Certificate &) override {
    std::unique_lock<std::mutex> Lock(Mutex);
    ++Entered;
    Gate.notify_all();
    Gate.wait(Lock, [this] { return Open; });
  }

  void close() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Open = false;
  }

  void open() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Open = true;
    Gate.notify_all();
  }

  /// Blocks until at least \p N `store` calls have reached the gate
  /// since construction. False on timeout.
  bool waitForEntered(size_t N, int TimeoutMillis = 30000) {
    std::unique_lock<std::mutex> Lock(Mutex);
    return Gate.wait_for(Lock, std::chrono::milliseconds(TimeoutMillis),
                         [&] { return Entered >= N; });
  }

private:
  std::mutex Mutex;
  std::condition_variable Gate;
  bool Open = true;
  size_t Entered = 0;
};

/// A convenience builder for the request everything sends.
NetRequest makeRequest(uint64_t Tag, uint32_t PoisoningBudget,
                       std::vector<float> X, uint32_t DeadlineMillis = 0);

/// One blocking client connection with fault-injection controls.
class NetClient {
public:
  /// Connects to 127.0.0.1:\p Port immediately; check `connected()`.
  explicit NetClient(uint16_t Port);

  bool connected() const { return Sock.valid(); }
  int fd() const { return Sock.get(); }

  /// Sends a complete, well-formed request frame.
  bool send(const NetRequest &Request);

  /// Sends only the first \p Bytes bytes of the encoded frame — a torn
  /// frame (the rest may follow via `sendRaw`, or never).
  bool sendPartial(const NetRequest &Request, size_t Bytes);

  /// Sends raw bytes verbatim (garbage headers, frame tails, anything).
  bool sendRaw(const void *Data, size_t Size);

  /// Blocks (bounded by \p TimeoutMillis) for the next complete, decoded
  /// response. False on timeout, EOF, or a corrupt response stream.
  bool recvResponse(NetResponse &Out, int TimeoutMillis = 30000);

  /// Blocks until the server closes this connection (EOF/reset),
  /// discarding any still-buffered responses. False on timeout.
  bool waitForClose(int TimeoutMillis = 30000);

  /// Half-close: no more bytes from us, responses still readable.
  void finishSending();

  /// Full close (also what the destructor does) — the mid-flight
  /// disconnect injection.
  void close() { Sock.reset(); }

private:
  FdHandle Sock;
  FrameReader In{NetResponseMagic};
};

} // namespace testharness
} // namespace antidote

#endif // ANTIDOTE_TESTS_NETHARNESS_H
