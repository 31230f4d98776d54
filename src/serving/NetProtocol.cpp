//===- serving/NetProtocol.cpp - Certificate-serving wire format --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/NetProtocol.h"

#include <algorithm>
#include <cstring>

using namespace antidote;

namespace {

/// Fixed-width little-endian append/consume helpers. Floats travel as
/// their bit patterns (the BitHash storage policy the disk store also
/// uses), so a query round-trips bit-identically — -0.0 and NaN
/// payloads included.
class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { le(V); }
  void u64(uint64_t V) { le(V); }
  void f32(float V) {
    uint32_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    le(Bits);
  }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    le(Bits);
  }

private:
  template <typename T> void le(T V) {
    for (size_t I = 0; I < sizeof(T); ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }

  std::string &Out;
};

/// Bounds-checked reads; any overrun flips `Ok` and zero-fills, so the
/// caller checks once at the end instead of after every field.
class Reader {
public:
  Reader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t u8() { return static_cast<uint8_t>(le<uint8_t>()); }
  uint32_t u32() { return le<uint32_t>(); }
  uint64_t u64() { return le<uint64_t>(); }
  float f32() {
    uint32_t Bits = le<uint32_t>();
    float V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  double f64() {
    uint64_t Bits = le<uint64_t>();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  bool ok() const { return Ok; }
  bool exhausted() const { return Ok && Pos == Size; }
  size_t remaining() const { return Size - Pos; }
  void skip(size_t N) {
    if (Size - Pos < N) {
      Ok = false;
      Pos = Size;
      return;
    }
    Pos += N;
  }

private:
  template <typename T> T le() {
    if (Size - Pos < sizeof(T)) {
      Ok = false;
      Pos = Size;
      return T();
    }
    uint64_t V = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += sizeof(T);
    return static_cast<T>(V);
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;
};

void writeHeader(std::string &Out, uint32_t Magic, uint32_t PayloadLen) {
  Writer W(Out);
  W.u32(Magic);
  W.u32(PayloadLen);
}

void writeCertificate(Writer &W, const Certificate &Cert) {
  W.u8(static_cast<uint8_t>(Cert.Kind));
  W.u32(Cert.PoisoningBudget);
  W.u32(Cert.CertifiedRadius);
  W.u32(Cert.Depth);
  W.u8(static_cast<uint8_t>(Cert.Domain));
  W.u8(static_cast<uint8_t>(Cert.Threat));
  W.u32(Cert.ConcretePrediction);
  W.u8(Cert.DominatingClass ? 1 : 0);
  W.u32(Cert.DominatingClass ? *Cert.DominatingClass : 0);
  W.u64(Cert.NumTerminals);
  W.u64(Cert.PeakDisjuncts);
  W.u64(Cert.PeakStateBytes);
  W.u32(Cert.BestSplitCalls);
  W.f64(Cert.Seconds);
}

bool readCertificate(Reader &R, Certificate &Cert) {
  uint8_t Kind = R.u8();
  Cert.PoisoningBudget = R.u32();
  Cert.CertifiedRadius = R.u32();
  Cert.Depth = R.u32();
  uint8_t Domain = R.u8();
  uint8_t Threat = R.u8();
  Cert.ConcretePrediction = R.u32();
  uint8_t HasDominating = R.u8();
  uint32_t Dominating = R.u32();
  Cert.NumTerminals = R.u64();
  Cert.PeakDisjuncts = R.u64();
  Cert.PeakStateBytes = R.u64();
  Cert.BestSplitCalls = R.u32();
  Cert.Seconds = R.f64();
  if (!R.ok() || Kind > static_cast<uint8_t>(VerdictKind::Cancelled) ||
      Domain > static_cast<uint8_t>(AbstractDomainKind::DisjunctsCapped) ||
      Threat > static_cast<uint8_t>(ThreatModelKind::LabelFlip) ||
      HasDominating > 1)
    return false;
  Cert.Kind = static_cast<VerdictKind>(Kind);
  Cert.Domain = static_cast<AbstractDomainKind>(Domain);
  Cert.Threat = static_cast<ThreatModelKind>(Threat);
  Cert.DominatingClass =
      HasDominating ? std::optional<unsigned>(Dominating) : std::nullopt;
  return true;
}

} // namespace

std::string antidote::encodeRequestFrame(const NetRequest &Request) {
  std::string Payload;
  Writer W(Payload);
  W.u64(Request.Tag);
  W.u32(Request.PoisoningBudget);
  W.u32(Request.DeadlineMillis);
  W.u32(static_cast<uint32_t>(Request.X.size()));
  for (float V : Request.X)
    W.f32(V);

  std::string Frame;
  writeHeader(Frame, NetRequestMagic, static_cast<uint32_t>(Payload.size()));
  Frame += Payload;
  return Frame;
}

std::string antidote::encodeResponseFrame(const NetResponse &Response) {
  std::string Payload;
  Writer W(Payload);
  W.u64(Response.Tag);
  W.u8(static_cast<uint8_t>(Response.Status));
  switch (Response.Status) {
  case NetStatus::Ok:
    W.u8(static_cast<uint8_t>(Response.Path));
    writeCertificate(W, Response.Cert);
    break;
  case NetStatus::Shed:
    W.u8(static_cast<uint8_t>(Response.ShedReason));
    break;
  case NetStatus::Error:
    W.u8(static_cast<uint8_t>(Response.ErrorReason));
    break;
  }

  std::string Frame;
  writeHeader(Frame, NetResponseMagic, static_cast<uint32_t>(Payload.size()));
  Frame += Payload;
  return Frame;
}

std::optional<NetRequest> antidote::decodeRequestPayload(const uint8_t *Data,
                                                         size_t Size) {
  Reader R(Data, Size);
  NetRequest Request;
  Request.Tag = R.u64();
  Request.PoisoningBudget = R.u32();
  Request.DeadlineMillis = R.u32();
  uint32_t NumFeatures = R.u32();
  if (!R.ok() || R.remaining() != NumFeatures * sizeof(float))
    return std::nullopt;
  Request.X.reserve(NumFeatures);
  for (uint32_t I = 0; I < NumFeatures; ++I)
    Request.X.push_back(R.f32());
  if (!R.exhausted())
    return std::nullopt;
  return Request;
}

std::optional<NetResponse>
antidote::decodeResponsePayload(const uint8_t *Data, size_t Size) {
  Reader R(Data, Size);
  NetResponse Response;
  Response.Tag = R.u64();
  uint8_t Status = R.u8();
  if (!R.ok() || Status > static_cast<uint8_t>(NetStatus::Error))
    return std::nullopt;
  Response.Status = static_cast<NetStatus>(Status);
  switch (Response.Status) {
  case NetStatus::Ok: {
    uint8_t Path = R.u8();
    if (!R.ok() || Path > static_cast<uint8_t>(NetServePath::Stored) ||
        !readCertificate(R, Response.Cert))
      return std::nullopt;
    Response.Path = static_cast<NetServePath>(Path);
    break;
  }
  case NetStatus::Shed: {
    uint8_t Reason = R.u8();
    if (!R.ok() || Reason > static_cast<uint8_t>(NetShedReason::Paced))
      return std::nullopt;
    Response.ShedReason = static_cast<NetShedReason>(Reason);
    break;
  }
  case NetStatus::Error: {
    uint8_t Reason = R.u8();
    if (!R.ok() || Reason > static_cast<uint8_t>(NetErrorReason::BadBudget))
      return std::nullopt;
    Response.ErrorReason = static_cast<NetErrorReason>(Reason);
    break;
  }
  }
  if (!R.exhausted())
    return std::nullopt;
  return Response;
}

std::string antidote::encodeReplicationPollFrame(
    const ReplicationEndpoint::PollRequest &Poll) {
  std::string Payload;
  Writer W(Payload);
  W.u32(Poll.Segment);
  W.u64(Poll.Offset);
  W.u64(Poll.ScopeHi);
  W.u64(Poll.ScopeLo);
  W.u32(Poll.MaxRecords);

  std::string Frame;
  writeHeader(Frame, NetReplicationPollMagic,
              static_cast<uint32_t>(Payload.size()));
  Frame += Payload;
  return Frame;
}

std::string antidote::encodeReplicationDeltaFrame(
    const ReplicationEndpoint::Delta &Delta) {
  std::string Payload;
  Writer W(Payload);
  W.u8(static_cast<uint8_t>(Delta.Status));
  W.u32(Delta.Segment);
  W.u64(Delta.Offset);
  W.u8(Delta.AtHead ? 1 : 0);
  W.u32(static_cast<uint32_t>(Delta.Records.size()));
  for (const std::vector<uint8_t> &Record : Delta.Records) {
    W.u32(static_cast<uint32_t>(Record.size()));
    Payload.append(reinterpret_cast<const char *>(Record.data()),
                   Record.size());
  }

  std::string Frame;
  writeHeader(Frame, NetReplicationDeltaMagic,
              static_cast<uint32_t>(Payload.size()));
  Frame += Payload;
  return Frame;
}

std::optional<ReplicationEndpoint::PollRequest>
antidote::decodeReplicationPollPayload(const uint8_t *Data, size_t Size) {
  Reader R(Data, Size);
  ReplicationEndpoint::PollRequest Poll;
  Poll.Segment = R.u32();
  Poll.Offset = R.u64();
  Poll.ScopeHi = R.u64();
  Poll.ScopeLo = R.u64();
  Poll.MaxRecords = R.u32();
  if (!R.exhausted())
    return std::nullopt;
  return Poll;
}

std::optional<ReplicationEndpoint::Delta>
antidote::decodeReplicationDeltaPayload(const uint8_t *Data, size_t Size) {
  Reader R(Data, Size);
  ReplicationEndpoint::Delta Delta;
  uint8_t Status = R.u8();
  Delta.Segment = R.u32();
  Delta.Offset = R.u64();
  uint8_t AtHead = R.u8();
  uint32_t NumRecords = R.u32();
  if (!R.ok() || AtHead > 1 ||
      Status > static_cast<uint8_t>(
                   ReplicationEndpoint::PollStatus::Unavailable))
    return std::nullopt;
  Delta.Status = static_cast<ReplicationEndpoint::PollStatus>(Status);
  Delta.AtHead = AtHead != 0;
  Delta.Records.reserve(std::min<uint32_t>(NumRecords, 4096));
  for (uint32_t I = 0; I < NumRecords; ++I) {
    uint32_t Bytes = R.u32();
    if (!R.ok() || R.remaining() < Bytes)
      return std::nullopt;
    const uint8_t *Start = Data + (Size - R.remaining());
    Delta.Records.emplace_back(Start, Start + Bytes);
    R.skip(Bytes);
  }
  if (!R.exhausted())
    return std::nullopt;
  return Delta;
}

bool FrameReader::feed(const uint8_t *Data, size_t Size) {
  if (Corrupt)
    return false;
  Buffer.insert(Buffer.end(), Data, Data + Size);
  // Slice off every complete frame; whatever remains waits for more
  // bytes. An 8-byte header is enough to validate magic and length, so
  // garbage is detected long before a bogus "length" could make us
  // buffer unboundedly.
  size_t Pos = 0;
  while (Buffer.size() - Pos >= 8) {
    uint32_t FrameMagic = 0, Length = 0;
    std::memcpy(&FrameMagic, Buffer.data() + Pos, 4);
    std::memcpy(&Length, Buffer.data() + Pos + 4, 4);
    if ((FrameMagic != Magic1 && (Magic2 == 0 || FrameMagic != Magic2)) ||
        Length > MaxBytes) {
      Corrupt = true;
      Buffer.clear();
      return false;
    }
    if (Buffer.size() - Pos - 8 < Length)
      break; // Torn frame: recoverable, wait for the rest.
    Frame F;
    F.Magic = FrameMagic;
    F.Payload.assign(Buffer.begin() + static_cast<ptrdiff_t>(Pos + 8),
                     Buffer.begin() +
                         static_cast<ptrdiff_t>(Pos + 8 + Length));
    Ready.push_back(std::move(F));
    Pos += 8 + Length;
  }
  Buffer.erase(Buffer.begin(), Buffer.begin() + static_cast<ptrdiff_t>(Pos));
  return true;
}

std::optional<std::vector<uint8_t>> FrameReader::next() {
  if (Ready.empty())
    return std::nullopt;
  std::vector<uint8_t> Out = std::move(Ready.front().Payload);
  Ready.erase(Ready.begin());
  return Out;
}

std::optional<FrameReader::Frame> FrameReader::nextFrame() {
  if (Ready.empty())
    return std::nullopt;
  Frame Out = std::move(Ready.front());
  Ready.erase(Ready.begin());
  return Out;
}
