//===- support/Net.h - Socket and event-loop primitives --------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thin OS layer under the network serving tier (serving/NetServer.h):
/// RAII file descriptors, loopback TCP listen/connect with the port-0
/// readback idiom (bind port 0, ask the kernel which port it picked — the
/// only reliable way to run many test servers on one CI machine without
/// bind races; see KNOWN_FAILURES.md), a minimal `epoll` wrapper, and an
/// `eventfd`-backed waker so non-epoll threads (`CertServer` workers
/// completing verifications) can nudge the event loop.
///
/// Everything here is Linux-flavored (`epoll`, `eventfd`) like the rest of
/// the serving tier's CI; nothing outside serving/ and the network tests
/// includes this header.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SUPPORT_NET_H
#define ANTIDOTE_SUPPORT_NET_H

#include <cstdint>
#include <string>
#include <vector>

namespace antidote {

/// A move-only owning file descriptor; closes on destruction. -1 = empty.
class FdHandle {
public:
  FdHandle() = default;
  explicit FdHandle(int Fd) : Fd(Fd) {}
  ~FdHandle() { reset(); }

  FdHandle(FdHandle &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  FdHandle &operator=(FdHandle &&O) noexcept {
    if (this != &O) {
      reset();
      Fd = O.Fd;
      O.Fd = -1;
    }
    return *this;
  }
  FdHandle(const FdHandle &) = delete;
  FdHandle &operator=(const FdHandle &) = delete;

  int get() const { return Fd; }
  bool valid() const { return Fd >= 0; }

  /// Closes the held descriptor (if any) and adopts \p NewFd.
  void reset(int NewFd = -1);

  /// Releases ownership without closing.
  int release() {
    int Out = Fd;
    Fd = -1;
    return Out;
  }

private:
  int Fd = -1;
};

/// Puts \p Fd into non-blocking mode. Returns false on fcntl failure.
bool setNonBlocking(int Fd);

/// A bound-and-listening loopback TCP socket. `Port` is the *actual*
/// port after readback, so callers may request port 0 and publish what
/// the kernel assigned — the CI smoke and every network test do exactly
/// this to dodge bind collisions between parallel jobs.
struct ListenResult {
  FdHandle Fd;          ///< Invalid on failure.
  uint16_t Port = 0;    ///< Kernel-assigned when 0 was requested.
  std::string Error;    ///< Human-readable reason on failure.
  bool ok() const { return Fd.valid(); }
};

/// Binds 127.0.0.1:\p Port (0 = ephemeral), listens, reads the bound
/// port back via getsockname, and returns the non-blocking socket.
/// SO_REUSEADDR is set so a quickly restarted server does not trip over
/// its predecessor's TIME_WAIT entries.
ListenResult listenTcpLoopback(uint16_t Port, int Backlog = 128);

/// Connects a *blocking* TCP socket to 127.0.0.1:\p Port (the harness
/// and CLI client side; the server side never connects). Invalid handle
/// on failure.
FdHandle connectTcpLoopback(uint16_t Port);

/// Connects a *blocking* TCP socket to \p Host:\p Port, resolving the
/// host via getaddrinfo (names and dotted quads alike, every resolved
/// address tried in order) — the cross-machine flavour the replication
/// puller uses. Invalid handle on failure, with \p Error naming why.
FdHandle connectTcp(const std::string &Host, uint16_t Port,
                    std::string &Error);

/// One readiness event out of `Epoll::wait`.
struct EpollEvent {
  uint64_t Data = 0; ///< The caller's cookie from add/mod.
  bool Readable = false;
  bool Writable = false;
  bool Closed = false; ///< HUP/ERR — peer gone or socket broken.
};

/// Minimal `epoll` wrapper: register fds with a caller cookie, wait for
/// readiness. No ownership of registered fds.
class Epoll {
public:
  Epoll();
  bool valid() const { return Fd.valid(); }

  /// \p Write requests EPOLLOUT in addition to EPOLLIN.
  bool add(int Fd, uint64_t Data, bool Write = false);
  bool mod(int Fd, uint64_t Data, bool Write);
  void del(int Fd);

  /// Blocks up to \p TimeoutMillis (-1 = forever) and appends ready
  /// events to \p Out (cleared first). Returns false on a non-EINTR
  /// wait failure.
  bool wait(std::vector<EpollEvent> &Out, int TimeoutMillis);

private:
  FdHandle Fd;
};

/// An `eventfd` the event loop sleeps on: any thread calls `signal()`,
/// the loop observes readability and calls `drain()`. Coalesces bursts
/// (eventfd is a counter, not a queue).
class WakeFd {
public:
  WakeFd();
  bool valid() const { return Fd.valid(); }
  int fd() const { return Fd.get(); }

  /// Async-signal- and thread-safe nudge.
  void signal();

  /// Consumes pending signals; call once per readiness notification.
  void drain();

private:
  FdHandle Fd;
};

} // namespace antidote

#endif // ANTIDOTE_SUPPORT_NET_H
