//===- perfbench/src/Layers.cpp - Per-layer measurements ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Inputs.h"
#include "Stats.h"

#include "abstract/AbstractDTrace.h"
#include "serving/NetProtocol.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <future>
#include <unordered_map>

using namespace antidote;
using namespace perfbench;

std::vector<TracedRequest>
perfbench::joinSpans(const std::vector<RequestRecord> &Reqs,
                     const std::vector<StoreSpan> &Spans) {
  std::unordered_map<uint64_t, std::deque<size_t>> ByKey;
  for (size_t I = 0; I < Spans.size(); ++I)
    ByKey[Spans[I].Key].push_back(I);
  std::vector<TracedRequest> Joined;
  Joined.reserve(Reqs.size());
  for (const RequestRecord &Rec : Reqs) {
    auto It = ByKey.find(Rec.Key);
    if (!Rec.DecodedNs || It == ByKey.end() || It->second.empty())
      continue;
    Joined.push_back({Rec, Spans[It->second.front()]});
    It->second.pop_front();
  }
  return Joined;
}

void perfbench::reportStoreSpans(Report &Out,
                                 const std::vector<StoreSpan> &Spans) {
  std::vector<double> Lookup, Write, Verify, BestSplit, Terminals;
  double PeakDisjuncts = 0, PeakStateKb = 0;
  for (const StoreSpan &S : Spans) {
    Lookup.push_back((S.LookupOutNs - S.LookupInNs) / 1e3);
    if (!S.StoreInNs)
      continue;
    Write.push_back((S.StoreOutNs - S.StoreInNs) / 1e3);
    Verify.push_back((S.StoreInNs - S.LookupOutNs) / 1e3);
    BestSplit.push_back(S.BestSplitCalls);
    Terminals.push_back(static_cast<double>(S.Terminals));
    PeakDisjuncts = std::max(PeakDisjuncts, double(S.PeakDisjuncts));
    PeakStateKb = std::max(PeakStateKb, S.PeakStateBytes / 1024.0);
  }
  Out.metric("store.lookup_us.p50", quantile(Lookup, 0.5));
  Out.metric("store.lookup_us.p99", quantile(Lookup, 0.99));
  Out.metric("store.write_us.p50", quantile(Write, 0.5));
  Out.metric("store.write_us.p99", quantile(Write, 0.99));
  Out.metric("verifier.verify_us.p50", quantile(Verify, 0.5));
  Out.metric("verifier.verify_us.p90", quantile(Verify, 0.9));
  Out.metric("verifier.calls", static_cast<double>(Verify.size()));
  Out.metric("verifier.best_split_calls", mean(BestSplit));
  Out.metric("verifier.peak_disjuncts", PeakDisjuncts);
  Out.metric("verifier.peak_state_kb", PeakStateKb);
  Out.metric("verifier.terminals", mean(Terminals));
}

void perfbench::reportTracedRequests(Report &Out,
                                     const std::vector<TracedRequest> &Reqs) {
  static const char *Names[] = {"generator_late", "client_to_store",
                                "store_probe",    "verify",
                                "write_through",  "store_to_client"};
  constexpr size_t NumParts = 6;
  std::vector<double> Parts[NumParts], Total;
  std::vector<StoreSpan> Spans;
  int64_t WorstSumError = 0;
  for (const TracedRequest &T : Reqs) {
    const RequestRecord &C = T.Client;
    const StoreSpan &S = T.Span;
    bool Wrote = S.StoreInNs != 0;
    int64_t Ns[NumParts] = {C.SentNs - C.DueNs,
                            S.LookupInNs - C.SentNs,
                            S.LookupOutNs - S.LookupInNs,
                            Wrote ? S.StoreInNs - S.LookupOutNs : 0,
                            Wrote ? S.StoreOutNs - S.StoreInNs : 0,
                            C.DecodedNs - S.exitNs()};
    int64_t Sum = 0;
    for (size_t P = 0; P < NumParts; ++P) {
      Parts[P].push_back(Ns[P] / 1e3);
      Sum += Ns[P];
    }
    int64_t Latency = C.DecodedNs - C.DueNs;
    WorstSumError = std::max<int64_t>(WorstSumError, std::llabs(Sum - Latency));
    Total.push_back(Latency / 1e3);
    Spans.push_back(S);
  }

  double MeanTotal = mean(Total);
  Out.note("phase breakdown over %zu traced requests (the parts of every "
           "request sum to its latency; worst |sum - latency| = %lld ns):",
           Reqs.size(), static_cast<long long>(WorstSumError));
  Out.note("  %-16s %10s %10s %8s", "phase", "p50 us", "mean us", "share");
  double SumOfP50 = 0;
  for (size_t P = 0; P < NumParts; ++P) {
    double P50 = quantile(Parts[P], 0.5), Mean = mean(Parts[P]);
    SumOfP50 += P50;
    Out.note("  %-16s %10.2f %10.2f %7.1f%%", Names[P], P50, Mean,
             MeanTotal > 0 ? 100.0 * Mean / MeanTotal : 0.0);
  }
  double P50Total = quantile(Total, 0.5);
  Out.note("  %-16s %10.2f %10.2f %7.1f%%", "latency", P50Total, MeanTotal,
           100.0);
  Out.note("  sum of the part p50s = %.2f us against the latency p50 %.2f us "
           "(%.1f%%); the means add up exactly",
           SumOfP50, P50Total,
           P50Total > 0 ? 100.0 * SumOfP50 / P50Total : 0.0);
  for (size_t I = 0; I < Reqs.size() && I < 3; ++I) {
    size_t At = I * (Reqs.size() / 3);
    std::string Line;
    char Buf[64];
    for (size_t P = 0; P < NumParts; ++P) {
      std::snprintf(Buf, sizeof(Buf), "%s%s %.2f", P ? " + " : "", Names[P],
                    Parts[P][At]);
      Line += Buf;
    }
    Out.note("  request %zu: %s = %.2f us", At, Line.c_str(), Total[At]);
  }

  // Exact-key and range-rule hits take different paths through the store
  // (hash probe vs radius index), so each is timed on its own, with the
  // whole request's latency beside it.
  const std::pair<LookupOutcome, const char *> Paths[] = {
      {LookupOutcome::Hit, "exact"}, {LookupOutcome::RangeHit, "range"}};
  for (const auto &[Outcome, Name] : Paths) {
    std::vector<double> Lookup, Latency;
    for (size_t I = 0; I < Reqs.size(); ++I)
      if (Reqs[I].Span.Outcome == Outcome) {
        Lookup.push_back(Parts[2][I]);
        Latency.push_back(Total[I]);
      }
    if (Latency.empty())
      continue;
    Out.note("  %s hits: %zu requests, store probe p50 %.3f us, latency p50 "
             "%.2f us",
             Name, Latency.size(), quantile(Lookup, 0.5),
             quantile(Latency, 0.5));
    Out.metric(std::string("store.lookup_") + Name + "_us.p50",
               quantile(Lookup, 0.5));
  }

  Out.metric("net.front_us.p50", quantile(Parts[1], 0.5));
  Out.metric("net.front_us.p90", quantile(Parts[1], 0.9));
  Out.metric("net.back_us.p50", quantile(Parts[5], 0.5));
  Out.metric("net.back_us.p90", quantile(Parts[5], 0.9));
  reportStoreSpans(Out, Spans);
}

void perfbench::replayCertServer(
    Report &Out, CertServer &Server, TimingStore &Timing,
    const std::function<ReplayQuery(uint64_t)> &Query, unsigned Window,
    double Seconds, uint64_t MaxRequests,
    const std::function<bool(uint64_t, const Certificate &)> &Check) {
  Timing.reset();
  Timing.setEnabled(true);
  std::deque<std::pair<uint64_t, std::future<Certificate>>> InFlight;
  std::vector<RequestRecord> Recs;
  std::vector<double> Pending;
  uint64_t Wrong = 0;
  int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  for (;;) {
    while (InFlight.size() < Window && Recs.size() < MaxRequests &&
           nowNs() < End) {
      ReplayQuery Q = Query(Recs.size());
      RequestRecord Rec;
      Rec.Key = queryKey(Q.X.data(), static_cast<unsigned>(Q.X.size()),
                         Q.Budget);
      Pending.push_back(static_cast<double>(Server.pendingRequests()));
      Rec.DueNs = Rec.SentNs = nowNs();
      InFlight.emplace_back(Recs.size(),
                            Server.submit(std::move(Q.X), Q.Budget));
      Recs.push_back(Rec);
    }
    if (InFlight.empty())
      break;
    Certificate Cert = InFlight.front().second.get();
    uint64_t Index = InFlight.front().first;
    Recs[Index].DecodedNs = nowNs();
    InFlight.pop_front();
    if (!Check(Index, Cert))
      ++Wrong;
  }
  Server.drain();
  Timing.setEnabled(false);
  Out.attempted(Recs.size());
  if (Wrong)
    Out.fail(Wrong, "wrong certificates in the CertServer::submit replay");

  std::vector<TracedRequest> Joined = joinSpans(Recs, Timing.spans());
  std::vector<double> Rtt, Wait, Completion;
  for (const TracedRequest &T : Joined) {
    Rtt.push_back((T.Client.DecodedNs - T.Client.SentNs) / 1e3);
    Wait.push_back((T.Span.LookupInNs - T.Client.SentNs) / 1e3);
    Completion.push_back((T.Client.DecodedNs - T.Span.exitNs()) / 1e3);
  }
  Out.note("CertServer::submit replay: %zu requests, %u in flight, %zu "
           "joined to store spans (%llu spans dropped)",
           Recs.size(), Window, Joined.size(),
           static_cast<unsigned long long>(Timing.dropped()));
  Out.metric("certserver.inproc_rtt_us", quantile(Rtt, 0.5));
  Out.metric("certserver.queue_wait_us", quantile(Wait, 0.5));
  Out.metric("certserver.completion_us", quantile(Completion, 0.5));
  Out.metric("certserver.pending_at_submit", mean(Pending));
  keepTrace("certserver_replay", std::move(Joined));
}

void perfbench::replayCodec(Report &Out,
                            const std::vector<ReplayQuery> &Queries,
                            const std::vector<Certificate> &Answers) {
  std::vector<std::string> Payloads;
  double RequestBytes = 0;
  for (size_t I = 0; I < Queries.size(); ++I) {
    NetRequest Request;
    Request.Tag = I;
    Request.PoisoningBudget = Queries[I].Budget;
    Request.X = Queries[I].X;
    std::string Frame = encodeRequestFrame(Request);
    RequestBytes += static_cast<double>(Frame.size());
    Payloads.push_back(Frame.substr(8)); // Past magic + length.
  }
  std::vector<NetResponse> Responses;
  double ResponseBytes = 0;
  for (size_t I = 0; I < Answers.size(); ++I) {
    NetResponse Response;
    Response.Tag = I;
    Response.Cert = Answers[I];
    ResponseBytes += static_cast<double>(encodeResponseFrame(Response).size());
    Responses.push_back(Response);
  }
  if (Payloads.empty() || Responses.empty())
    return;

  // Enough calls per round to sit far above the clock's resolution.
  constexpr size_t CallsPerRound = 20000;
  std::vector<double> DecodeUs, EncodeUs;
  size_t Sink = 0;
  for (int Round = 0; Round < 5; ++Round) {
    int64_t T0 = nowNs();
    for (size_t I = 0; I < CallsPerRound; ++I) {
      const std::string &P = Payloads[I % Payloads.size()];
      std::optional<NetRequest> Decoded = decodeRequestPayload(
          reinterpret_cast<const uint8_t *>(P.data()), P.size());
      Sink += Decoded ? Decoded->X.size() : 0;
    }
    int64_t T1 = nowNs();
    for (size_t I = 0; I < CallsPerRound; ++I) {
      std::string Frame = encodeResponseFrame(Responses[I % Responses.size()]);
      Sink += Frame.size();
    }
    int64_t T2 = nowNs();
    DecodeUs.push_back((T1 - T0) / 1e3 / CallsPerRound);
    EncodeUs.push_back((T2 - T1) / 1e3 / CallsPerRound);
  }
  Out.note("codec replay: %zu request and %zu response frames (checksum %zu)",
           Payloads.size(), Responses.size(), Sink);
  Out.metric("net.encode_us", median(EncodeUs));
  Out.metric("net.decode_us", median(DecodeUs));
  Out.metric("net.request_bytes",
             RequestBytes / static_cast<double>(Payloads.size()));
  Out.metric("net.response_bytes",
             ResponseBytes / static_cast<double>(Responses.size()));
}

void perfbench::replayKernels(Report &Out, const Verifier &V,
                              const std::vector<ReplayQuery> &Queries,
                              const VerifierConfig &Config, double Seconds) {
  AbstractLearnerConfig Learner;
  Learner.Depth = Config.Depth;
  Learner.Domain = Config.Domain;
  Learner.Threat = Config.Threat;
  Learner.Cprob = Config.Cprob;
  Learner.Gini = Config.Gini;
  Learner.DisjunctCap = Config.DisjunctCap;
  Learner.Limits = Config.Limits;

  std::vector<double> DTrace, BestSplit, Filter, Gini;
  size_t Sink = 0;
  int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  for (const ReplayQuery &Q : Queries) {
    if (nowNs() > End)
      break;
    AbstractDataset Root = AbstractDataset::entire(V.trainingSet(), Q.Budget);
    int64_t T0 = nowNs();
    AbstractLearnerResult Run =
        runAbstractDTrace(V.context(), Root, Q.X.data(), Learner);
    int64_t T1 = nowNs();
    std::optional<PredicateSet> Preds =
        abstractBestSplit(V.context(), Root, Config.Cprob, Config.Gini);
    int64_t T2 = nowNs();
    DTrace.push_back((T1 - T0) / 1e3);
    BestSplit.push_back((T2 - T1) / 1e3);
    Sink += Run.NumTerminals;
    if (!Preds || Preds->size() == 0)
      continue;
    int64_t T3 = nowNs();
    AbstractDataset Filtered = abstractFilter(Root, *Preds, Q.X.data());
    int64_t T4 = nowNs();
    AbstractDataset Pos = Root.restrict(Preds->predicates()[0], true);
    AbstractDataset Neg = Root.restrict(Preds->predicates()[0], false);
    int64_t T5 = nowNs();
    std::vector<Interval> Probs =
        abstractClassProbabilities(Root, Config.Cprob);
    Interval Score = abstractSplitScore(Pos, Neg, Config.Cprob, Config.Gini);
    int64_t T6 = nowNs();
    Filter.push_back((T4 - T3) / 1e3);
    Gini.push_back((T6 - T5) / 1e3);
    Sink += Filtered.size() + Probs.size() + Score.isEmpty();
  }
  Out.note("kernel replay on the root <T, n> state of %zu queries "
           "(checksum %zu)",
           DTrace.size(), Sink);
  Out.metric("abstract.dtrace_us", median(DTrace));
  Out.metric("abstract.best_split_us", median(BestSplit));
  Out.metric("abstract.filter_us", median(Filter));
  Out.metric("abstract.gini_us", median(Gini));
}

namespace {
std::vector<std::pair<std::string, std::vector<TracedRequest>>> &kept() {
  static std::vector<std::pair<std::string, std::vector<TracedRequest>>> K;
  return K;
}
} // namespace

void perfbench::keepTrace(const std::string &Phase,
                          std::vector<TracedRequest> Reqs) {
  kept().emplace_back(Phase, std::move(Reqs));
}

bool perfbench::writeTrace(const std::string &Path) {
  if (Path.empty())
    return true;
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "phase\trequest\tkey\tdue_ns\tsent_ns\tlookup_in_ns\t"
                  "lookup_out_ns\tstore_in_ns\tstore_out_ns\tdecoded_ns\t"
                  "outcome\tdepth\tdomain\n");
  static const char *Outcomes[] = {"hit", "range_hit", "miss"};
  for (const auto &[Phase, Reqs] : kept())
    for (size_t I = 0; I < Reqs.size(); ++I) {
      const RequestRecord &C = Reqs[I].Client;
      const StoreSpan &S = Reqs[I].Span;
      std::fprintf(F,
                   "%s\t%zu\t%016" PRIx64 "\t%" PRId64 "\t%" PRId64
                   "\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                   "\t%" PRId64 "\t%s\t%u\t%s\n",
                   Phase.c_str(), I, S.Key, C.DueNs, C.SentNs, S.LookupInNs,
                   S.LookupOutNs, S.StoreInNs, S.StoreOutNs, C.DecodedNs,
                   Outcomes[static_cast<int>(S.Outcome)], S.Depth,
                   domainKindName(S.Domain));
    }
  return std::fclose(F) == 0;
}
