//===- examples/net_client.cpp - Binary-protocol serving client ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The command-line counterpart of `antidote_cli --listen`: connects to
// 127.0.0.1:PORT, pipelines a deterministic stream of requests through
// the length-prefixed protocol (serving/NetProtocol.h), and prints one
// line per response. The CI network smoke runs several of these
// concurrently against one server and greps the summary line.
//
//   net_client --port P --features F [--count K] [--n N]
//              [--deadline-ms D] [--tag-base T]
//
// Queries are synthesized deterministically from the tag (feature j of
// request i is ((i * 7 + j * 3) % 11)), so two clients with different
// --tag-base exercise distinct cache keys while reruns stay identical.
//
// Exit 0 = every request got a response (shed responses included — the
// protocol worked), 1 = connection/protocol failure, 2 = usage error.
//
//===----------------------------------------------------------------------===//

#include "serving/NetProtocol.h"
#include "support/Net.h"
#include "support/Parse.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include <sys/socket.h>

using namespace antidote;

namespace {

struct ClientOptions {
  uint16_t Port = 0;
  unsigned Features = 0;
  uint64_t Count = 8;
  uint32_t Budget = 1;
  uint32_t DeadlineMillis = 0;
  uint64_t TagBase = 0;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: net_client --port P --features F [--count K] [--n N]\n"
      "                  [--deadline-ms D] [--tag-base T]\n"
      "  --port         server port (required, from the 'listening on'\n"
      "                 line of antidote_cli --listen)\n"
      "  --features     feature count of the server's training set\n"
      "  --count        requests to send (default 8)\n"
      "  --n            poisoning budget per request (default 1)\n"
      "  --deadline-ms  per-request deadline, milliseconds (0 = none)\n"
      "  --tag-base     first tag; also varies the synthesized queries\n");
}

bool parseArgs(int Argc, char **Argv, ClientOptions &Options) {
  bool HavePort = false, HaveFeatures = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h")
      return false;
    const char *Value = I + 1 < Argc ? Argv[++I] : nullptr;
    if (!Value) {
      std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
      return false;
    }
    auto CountFlag = [&](uint64_t Max, auto &Out) {
      std::optional<uint64_t> Parsed = parseUnsignedArg(Value, Max);
      if (!Parsed) {
        std::fprintf(stderr,
                     "error: %s needs an unsigned integer <= %llu, got "
                     "'%s'\n",
                     Arg.c_str(), static_cast<unsigned long long>(Max),
                     Value);
        return false;
      }
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(*Parsed);
      return true;
    };
    if (Arg == "--port") {
      if (!CountFlag(65535, Options.Port))
        return false;
      HavePort = true;
    } else if (Arg == "--features") {
      if (!CountFlag(UINT_MAX, Options.Features))
        return false;
      HaveFeatures = true;
    } else if (Arg == "--count") {
      if (!CountFlag(UINT64_MAX, Options.Count))
        return false;
    } else if (Arg == "--n") {
      if (!CountFlag(UINT32_MAX, Options.Budget))
        return false;
    } else if (Arg == "--deadline-ms") {
      if (!CountFlag(UINT32_MAX, Options.DeadlineMillis))
        return false;
    } else if (Arg == "--tag-base") {
      if (!CountFlag(UINT64_MAX, Options.TagBase))
        return false;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (!HavePort || !HaveFeatures || Options.Features == 0) {
    std::fprintf(stderr, "error: --port and --features (>= 1) are "
                         "required\n");
    return false;
  }
  return true;
}

bool sendAll(int Fd, const std::string &Bytes) {
  size_t Pos = 0;
  while (Pos < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Pos, Bytes.size() - Pos,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Pos += static_cast<size_t>(N);
  }
  return true;
}

const char *statusName(const NetResponse &Response) {
  switch (Response.Status) {
  case NetStatus::Ok:
    return Response.Path == NetServePath::Stored ? "ok/stored"
                                                 : "ok/verified";
  case NetStatus::Shed:
    return Response.ShedReason == NetShedReason::Paced ? "shed/paced"
                                                       : "shed/overload";
  case NetStatus::Error:
    return "error";
  }
  return "?";
}

} // namespace

int main(int Argc, char **Argv) {
  ClientOptions Options;
  if (!parseArgs(Argc, Argv, Options)) {
    printUsage();
    return 2;
  }

  FdHandle Sock = connectTcpLoopback(Options.Port);
  if (!Sock.valid()) {
    std::fprintf(stderr, "error: connect 127.0.0.1:%u: %s\n", Options.Port,
                 std::strerror(errno));
    return 1;
  }

  // Pipeline everything, then collect: the server multiplexes, and this
  // is what the admission-control gates are exercised by.
  for (uint64_t I = 0; I < Options.Count; ++I) {
    NetRequest Request;
    Request.Tag = Options.TagBase + I;
    Request.PoisoningBudget = Options.Budget;
    Request.DeadlineMillis = Options.DeadlineMillis;
    Request.X.reserve(Options.Features);
    for (unsigned J = 0; J < Options.Features; ++J)
      Request.X.push_back(
          static_cast<float>((Request.Tag * 7 + J * 3) % 11));
    if (!sendAll(Sock.get(), encodeRequestFrame(Request))) {
      std::fprintf(stderr, "error: send: %s\n", std::strerror(errno));
      return 1;
    }
  }

  FrameReader In(NetResponseMagic);
  uint64_t Received = 0, Ok = 0, Shed = 0, Errors = 0;
  uint8_t Buf[4096];
  while (Received < Options.Count) {
    ssize_t N = ::recv(Sock.get(), Buf, sizeof(Buf), 0);
    if (N == 0) {
      std::fprintf(stderr, "error: server closed after %llu responses\n",
                   static_cast<unsigned long long>(Received));
      return 1;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "error: recv: %s\n", std::strerror(errno));
      return 1;
    }
    if (!In.feed(Buf, static_cast<size_t>(N))) {
      std::fprintf(stderr, "error: corrupt response stream\n");
      return 1;
    }
    while (std::optional<std::vector<uint8_t>> Payload = In.next()) {
      std::optional<NetResponse> Response =
          decodeResponsePayload(Payload->data(), Payload->size());
      if (!Response) {
        std::fprintf(stderr, "error: undecodable response payload\n");
        return 1;
      }
      ++Received;
      Ok += Response->Status == NetStatus::Ok;
      Shed += Response->Status == NetStatus::Shed;
      Errors += Response->Status == NetStatus::Error;
      if (Response->Status == NetStatus::Ok)
        std::printf("tag %llu: %s %s\n",
                    static_cast<unsigned long long>(Response->Tag),
                    statusName(*Response),
                    Response->Cert.summary().c_str());
      else
        std::printf("tag %llu: %s\n",
                    static_cast<unsigned long long>(Response->Tag),
                    statusName(*Response));
    }
  }

  std::printf("client: sent=%llu ok=%llu shed=%llu error=%llu\n",
              static_cast<unsigned long long>(Options.Count),
              static_cast<unsigned long long>(Ok),
              static_cast<unsigned long long>(Shed),
              static_cast<unsigned long long>(Errors));
  return 0;
}
