//===- perfbench/src/Serving.cpp - serve_hot and serve_cold ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The two socket workloads. Each stands up the stack `antidote_cli
// --listen` wires — CertCache (and for serve_cold a DiskCertStore) behind
// a TieredStore, a CertServer, a NetServer on a loopback port — in this
// process, next to the load generator on the main thread.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Inputs.h"
#include "Stats.h"

#include "data/Registry.h"
#include "serving/CertCache.h"
#include "serving/DiskCertStore.h"
#include "serving/NetServer.h"
#include "serving/TieredStore.h"

#include <algorithm>
#include <iterator>
#include <memory>

using namespace antidote;
using namespace perfbench;

namespace {

/// Set-ups per run, four per CPU on a 4-CPU host; setup_s is their
/// median. One serve_hot set-up varies by up to ~50 % within a run, so
/// the median needs this many.
constexpr unsigned SetupRepeats = 16;
/// Store spans one traced run can hold.
constexpr size_t SpanCapacity = 1u << 18;

/// serve_hot: the open-loop rate (near a tenth of capacity), the closed
/// loop's window, and the completions its `sweep_s` counts.
constexpr double HotRate = 10000.0;
constexpr unsigned HotWindow = 64;
constexpr uint64_t HotPass = 10000;
constexpr size_t HotMixSize = 1u << 16;
/// Untimed requests the set-up pushes through the socket.
constexpr uint64_t HotWarmRequests = 5000;

/// serve_cold: callers (one connection and one request each), the
/// verification budget, the completions its `sweep_s` counts, the
/// completion count at which peak RSS is read, and one re-verified answer
/// in every `ColdSampleEvery`.
constexpr unsigned ColdCallers = 2;
constexpr uint32_t ColdBudget = 2;
constexpr uint64_t ColdPass = 100;
constexpr uint64_t ColdRssMark = 1000;
constexpr uint64_t ColdSampleEvery = 64;
constexpr size_t ColdSampleMax = 16;
constexpr uint64_t ColdWarmRequests = 8;

VerifierConfig servingQuery() {
  VerifierConfig Query;
  Query.Depth = 2;
  Query.Domain = AbstractDomainKind::Disjuncts;
  return Query;
}

struct ServingSpec {
  const char *Dataset;
  unsigned Jobs;
  bool Disk;
  unsigned Conns;
};

/// Pins, for turn \p K, the generator (the calling thread), the event
/// loop and the CertServer's threads to three different CPUs, shifted by
/// one CPU per turn. With fewer than three CPUs the CertServer shares the
/// generator's.
void placeForTurn(const std::vector<int> &LoopTids,
                  const std::vector<int> &ServerTids, size_t K) {
  const std::vector<int> &Cpus = allowedCpus();
  if (Cpus.empty())
    return;
  auto Cpu = [&](size_t Offset) { return Cpus[(K + Offset) % Cpus.size()]; };
  pinThread(0, {Cpu(0)});
  for (int Tid : LoopTids)
    pinThread(Tid, {Cpu(1)});
  for (int Tid : ServerTids)
    pinThread(Tid, {Cpu(2)});
}

/// serve_hot's phases run in turns, twice as many as there are allowed
/// CPUs, each turn with the generator, the event loop and the dispatcher
/// pinned to three different CPUs (`placeForTurn`). A request hops
/// between those three threads in microseconds, and where the scheduler
/// puts them sets what a hop costs: left alone, the latency p50 flipped
/// between two levels ~50 % apart and the capacity moved by up to 2x
/// between runs of the same code. Fixed, separate CPUs keep every hop a
/// cross-CPU wake-up, as in `antidote_cli --listen` with its client in
/// another process, and keep the generator off the server's CPUs.
/// Rotating the placement, and taking medians over the turns, keeps one
/// CPU with a busy neighbour on the host from setting the whole run's
/// number. \p Phase(Base, Turns) runs one turn, its first request at mix
/// position `Base`.
template <typename PhaseFn>
std::vector<LoadResult> inTurns(const std::vector<int> &LoopTids,
                                const std::vector<int> &ServerTids,
                                PhaseFn Phase) {
  const std::vector<int> &Cpus = allowedCpus();
  size_t Turns = 2 * std::max<size_t>(1, Cpus.size());
  std::vector<LoadResult> Results;
  uint64_t Issued = 0;
  for (size_t K = 0; K < Turns; ++K) {
    placeForTurn(LoopTids, ServerTids, K);
    Results.push_back(Phase(Issued, Turns));
    Issued += Results.back().Issued;
    if (!Results.back().Error.empty())
      break;
  }
  moveAllThreads(Cpus);
  return Results;
}

/// The turns of one phase as one result (records and samples pooled).
LoadResult pooled(const std::vector<LoadResult> &Turns) {
  LoadResult All;
  auto Append = [](std::vector<double> &To, const std::vector<double> &V) {
    To.insert(To.end(), V.begin(), V.end());
  };
  for (const LoadResult &L : Turns) {
    All.Requests.insert(All.Requests.end(), L.Requests.begin(),
                        L.Requests.end());
    Append(All.LatenessUs, L.LatenessUs);
    Append(All.WindowRps, L.WindowRps);
    Append(All.WindowCpuUs, L.WindowCpuUs);
    All.Issued += L.Issued;
    All.Decoded += L.Decoded;
    if (!L.Error.empty())
      All.Error = L.Error;
  }
  return All;
}

/// One set-up of the serving stack. Members are declared in wiring order
/// and so destroyed in reverse: client sockets, then the socket tier,
/// the server, the stores, the dataset.
struct ServingStack {
  BenchmarkDataset Data;
  std::unique_ptr<Verifier> Fresh; ///< Cache-less, for checks and replays.
  std::unique_ptr<DiskCertStore> Disk;
  std::unique_ptr<CertCache> Cache;
  std::unique_ptr<TieredStore> Tiered;
  std::unique_ptr<TimingStore> Timing; ///< Traced runs only.
  std::unique_ptr<CertServer> Server;
  std::unique_ptr<NetServer> Net;
  std::vector<ClientConn> Conns;
  double LoadS = 0, BuildS = 0, OpenS = 0;
  /// Thread ids the CertServer (dispatcher, pool workers) and the
  /// NetServer (event loop) started.
  std::vector<int> ServerTids, LoopTids;
};

/// Ids in \p After but not in \p Before (both ascending).
std::vector<int> newIds(const std::vector<int> &Before,
                        const std::vector<int> &After) {
  std::vector<int> New;
  std::set_difference(After.begin(), After.end(), Before.begin(),
                      Before.end(), std::back_inserter(New));
  return New;
}

bool openStack(const ServingSpec &Spec, const std::string &DiskDir,
               bool Trace, ServingStack &S, std::string &Error) {
  int64_t T0 = nowNs();
  S.Data = loadBenchmarkDataset(Spec.Dataset, BenchScale::Scaled);
  int64_t T1 = nowNs();
  S.Fresh = std::make_unique<Verifier>(S.Data.Split.Train);
  S.LoadS = (T1 - T0) / 1e9;
  S.BuildS = (nowNs() - T1) / 1e9;
  if (Spec.Disk) {
    int64_t T2 = nowNs();
    DiskCertStore::OpenResult Opened = DiskCertStore::open(DiskDir);
    if (!Opened.ok()) {
      Error = Opened.Error;
      return false;
    }
    S.Disk = std::move(Opened.Store);
    S.OpenS = (nowNs() - T2) / 1e9;
  }
  S.Cache = std::make_unique<CertCache>(0);
  S.Tiered = std::make_unique<TieredStore>(S.Cache.get(), S.Disk.get());
  CertificateStore *Store = S.Tiered.get();
  if (Trace) {
    S.Timing = std::make_unique<TimingStore>(Store, SpanCapacity);
    Store = S.Timing.get();
  }
  CertServerConfig Config;
  Config.Query = servingQuery();
  Config.Jobs = Spec.Jobs;
  Config.Store = Store;
  std::vector<int> Before = threadIds();
  S.Server = std::make_unique<CertServer>(S.Data.Split.Train, Config);
  std::vector<int> WithServer = threadIds();
  S.ServerTids = newIds(Before, WithServer);
  S.Net = std::make_unique<NetServer>(*S.Server, NetServerConfig());
  if (!S.Net->start(Error))
    return false;
  S.LoopTids = newIds(WithServer, threadIds());
  S.Conns.resize(Spec.Conns);
  for (ClientConn &C : S.Conns)
    if (!connectClient(S.Net->port(), C, Error))
      return false;
  return true;
}

/// Sets the stack up `SetupRepeats` times from scratch — dataset,
/// verifier, store open, server start, then \p Warm(Stack, K, Error) for
/// set-up K, which also places the stack's threads — tearing the earlier
/// ones down, keeps the last and reports setup_s and the data.* /
/// store.open_s medians.
template <typename WarmFn>
std::unique_ptr<ServingStack> setUp(const Options &Opts,
                                    const ServingSpec &Spec, Report &Out,
                                    WarmFn Warm) {
  std::vector<double> Setup, Load, Build, Open;
  std::unique_ptr<ServingStack> S;
  const std::vector<int> &Cpus = allowedCpus();
  for (unsigned K = 0; K < SetupRepeats; ++K) {
    S.reset(); // The previous set-up goes first: one stack at a time.
    // Set-up K starts on the K-th allowed CPU, round robin, so one slow
    // CPU on the host slows a share of the set-ups, which the median
    // passes over, not a whole run's.
    if (!Cpus.empty())
      pinThread(0, {Cpus[K % Cpus.size()]});
    int64_t T0 = nowNs();
    S = std::make_unique<ServingStack>();
    std::string Error;
    if (!openStack(Spec, Opts.WorkDir + "/store-" + std::to_string(K),
                   Opts.Trace, *S, Error) ||
        !Warm(*S, K, Error)) {
      Out.note("error: set-up failed: %s", Error.c_str());
      return nullptr;
    }
    Setup.push_back((nowNs() - T0) / 1e9);
    Load.push_back(S->LoadS);
    Build.push_back(S->BuildS);
    Open.push_back(S->OpenS);
  }
  Out.note("set-up: %u times, median %.3f s (dataset %.3f s, verifier "
           "%.3f s, store open %.4f s)",
           SetupRepeats, median(Setup), median(Load), median(Build),
           median(Open));
  noteSeries(Out, "set-up times (s)", Setup);
  if (!Opts.Trace) {
    Out.metric("setup_s", median(Setup));
  } else {
    Out.metric("data.load_s", median(Load));
    Out.metric("data.verifier_build_s", median(Build));
    Out.metric("store.open_s", median(Open));
  }
  return S;
}

std::vector<double> latenciesUs(const std::vector<RequestRecord> &Reqs) {
  std::vector<double> Us;
  Us.reserve(Reqs.size());
  for (const RequestRecord &R : Reqs)
    if (R.DecodedNs)
      Us.push_back(R.latencyUs());
  return Us;
}

void noteLateness(Report &Out, const LoadResult &L) {
  std::vector<double> Late = L.LatenessUs;
  std::sort(Late.begin(), Late.end());
  Out.note("generator lateness over %zu sends: p50 %.1f us, p99 %.1f us, "
           "max %.1f us",
           Late.size(), quantileSorted(Late, 0.5), quantileSorted(Late, 0.99),
           Late.empty() ? 0.0 : Late.back());
}

/// Counts what a phase attempted and everything it did not answer right.
void account(Report &Out, const char *Phase, const LoadResult &L,
             const Answers &Got) {
  if (!L.Error.empty())
    Out.fail(1, std::string(Phase) + ": " + L.Error);
  reportAnswers(Out, Phase, L.Issued, Got);
}

/// The store hit/range/miss shares between two RAM-tier snapshots.
void reportShares(Report &Out, const StoreStats &Before,
                  const StoreStats &After) {
  double Hits = static_cast<double>(After.Hits - Before.Hits);
  double Range = static_cast<double>(After.RangeHits - Before.RangeHits);
  double Misses = static_cast<double>(After.Misses - Before.Misses);
  double Lookups = Hits + Range + Misses;
  Out.metric("store.hit_share", Lookups ? Hits / Lookups : 0.0);
  Out.metric("store.range_hit_share", Lookups ? Range / Lookups : 0.0);
  Out.metric("store.miss_share", Lookups ? Misses / Lookups : 0.0);
}

void reportRecordBytes(Report &Out, const ServingStack &S) {
  StoreStats Held = S.Disk ? S.Disk->stats() : S.Cache->stats();
  Out.metric("store.record_bytes",
             Held.LiveRecords ? static_cast<double>(Held.LiveBytes) /
                                    static_cast<double>(Held.LiveRecords)
                              : 0.0);
}

std::vector<float> rowOf(const Dataset &D, uint32_t Row) {
  const float *X = D.row(Row);
  return std::vector<float>(X, X + D.numFeatures());
}

} // namespace

//===----------------------------------------------------------------------===//
// serve_hot
//===----------------------------------------------------------------------===//

bool perfbench::runServeHot(const Options &Opts, Report &Out) {
  const ServingSpec Spec = {"mammography", /*Jobs=*/1, /*Disk=*/false,
                            /*Conns=*/1};
  std::vector<Certificate> Warm;
  std::vector<HotQuery> Mix;

  // The query behind request \p Index of a phase starting at mix
  // position \p Base.
  struct Resolved {
    const HotQuery *Q;
    uint32_t Budget;
  };
  auto Resolve = [&](uint64_t Base, uint64_t Index) {
    const HotQuery &Q = Mix[(Base + Index) % Mix.size()];
    return Resolved{&Q, hotBudget(Q, Warm[Q.Row])};
  };
  ServingStack *Stack = nullptr;
  auto Framer = [&](uint64_t Base) {
    return [&, Base](uint64_t Index, std::string &Frame) {
      Resolved R = Resolve(Base, Index);
      NetRequest Request;
      Request.Tag = Index;
      Request.PoisoningBudget = R.Budget;
      Request.X = rowOf(Stack->Data.Split.Test, R.Q->Row);
      Frame = encodeRequestFrame(Request);
      return queryKey(Request.X.data(),
                      static_cast<unsigned>(Request.X.size()), R.Budget);
    };
  };
  auto Correct = [&](uint64_t Base, uint64_t Index, const Certificate &C) {
    Resolved R = Resolve(Base, Index);
    return sameCertificate(C, expectedHotAnswer(Warm[R.Q->Row], R.Budget));
  };
  Answers Got;
  auto Checker = [&](uint64_t Base) {
    return [&, Base](uint64_t Index, const NetResponse &Response) {
      Got.count(Response, Correct(Base, Index, Response.Cert));
    };
  };

  // Set-up: warm the RAM tier with every test row at the warm budget
  // (through CertServer::submit, so the keys are the server's own), then
  // push a short untimed burst through the socket.
  std::unique_ptr<ServingStack> Kept =
      setUp(Opts, Spec, Out,
            [&](ServingStack &S, unsigned K, std::string &Error) {
        placeForTurn(S.LoopTids, S.ServerTids, K);
        Stack = &S;
        const Dataset &Test = S.Data.Split.Test;
        std::vector<std::future<Certificate>> Futures;
        for (uint32_t Row = 0; Row < Test.numRows(); ++Row)
          Futures.push_back(S.Server->submit(rowOf(Test, Row), HotWarmBudget));
        Warm.clear();
        for (std::future<Certificate> &F : Futures) {
          Warm.push_back(F.get());
          VerdictKind K = Warm.back().Kind;
          if (K != VerdictKind::Robust && K != VerdictKind::Unknown &&
              K != VerdictKind::ResourceLimit) {
            Error = "warm-up verification did not finish";
            return false;
          }
        }
        Mix = makeHotMix(Opts.Seed, Test.numRows(), HotMixSize);
        Got = Answers();
        ClosedLoop Burst;
        Burst.Window = HotWindow;
        Burst.Seconds = 60;
        Burst.MaxRequests = HotWarmRequests;
        LoadResult L =
            runClosedLoop({&S.Conns[0]}, Burst, Framer(0), Checker(0));
        if (!L.Error.empty() || Got.failed()) {
          Error = "socket warm-up failed: " + L.Error;
          return false;
        }
        return true;
      });
  if (!Kept)
    return false;
  ServingStack &S = *Kept;
  size_t Robust = 0;
  for (const Certificate &C : Warm)
    Robust += C.isRobust();
  Out.note("serve_hot: %zu warmed rows (%zu robust at n=%u), mix of %zu "
           "queries, %.0f%% range-rule",
           Warm.size(), Robust, HotWarmBudget, Mix.size(),
           100.0 * HotRangeShare);

  // An open-loop phase of \p Seconds from mix position \p Base, in turns.
  auto OpenLoop = [&](double Seconds, uint64_t Base) {
    return inTurns(S.LoopTids, S.ServerTids, [&](uint64_t At, size_t Turns) {
      return runOpenLoop(S.Conns[0], HotRate, Seconds / Turns,
                         Framer(Base + At), Checker(Base + At));
    });
  };
  // The median over the turns of each turn's \p Q latency quantile (us).
  auto TurnQuantile = [&Out](const std::vector<LoadResult> &Turns, double Q) {
    std::vector<double> PerTurn;
    for (const LoadResult &L : Turns)
      PerTurn.push_back(quantile(latenciesUs(L.Requests), Q));
    noteSeries(Out, Q == 0.5 ? "latency p50 per turn (us)"
                             : "latency p90 per turn (us)",
               PerTurn);
    return median(PerTurn);
  };

  if (!Opts.Trace) {
    // Capacity: closed loop with a deep window.
    Got = Answers();
    LoadResult Cap = pooled(inTurns(
        S.LoopTids, S.ServerTids, [&](uint64_t At, size_t Turns) {
          ClosedLoop Deep;
          Deep.Window = HotWindow;
          Deep.Seconds = share(Opts, 2) / Turns;
          Deep.Windows = 2;
          return runClosedLoop({&S.Conns[0]}, Deep, Framer(At), Checker(At));
        }));
    account(Out, "capacity phase", Cap, Got);
    Out.note("capacity phase: %llu requests, %u in flight",
             static_cast<unsigned long long>(Cap.Decoded), HotWindow);
    double Capacity = median(Cap.WindowRps);
    noteSeries(Out, "capacity per window (1/s)", Cap.WindowRps);
    noteSeries(Out, "server CPU per request per window (us)", Cap.WindowCpuUs);
    Out.metric("capacity_rps", Capacity);
    Out.metric("cpu_us_per_req", median(Cap.WindowCpuUs));
    // The time HotPass completions take at that capacity: the same
    // measurement as capacity_rps, in the sweep's unit.
    Out.metric("sweep_s", HotPass / Capacity);

    // Latency: open loop on one connection.
    Got = Answers();
    std::vector<LoadResult> Turns = OpenLoop(share(Opts, 2), Cap.Issued);
    LoadResult Lat = pooled(Turns);
    account(Out, "latency phase", Lat, Got);
    noteLateness(Out, Lat);
    noteLatency(Out, "open-loop", latenciesUs(Lat.Requests));
    Out.metric("latency_p50_ms", TurnQuantile(Turns, 0.5) / 1e3);
    Out.metric("latency_p90_ms", TurnQuantile(Turns, 0.9) / 1e3);
    Out.metric("peak_rss_mb", peakRssMb());
    return true;
  }

  // Traced run: the CertServer::submit replay, then the open loop
  // untraced and traced.
  TimingStore &Timing = *S.Timing;
  replayCertServer(
      Out, *S.Server, Timing,
      [&](uint64_t Index) {
        Resolved R = Resolve(0, Index);
        return ReplayQuery{rowOf(S.Data.Split.Test, R.Q->Row), R.Budget};
      },
      HotWindow, share(Opts, 4), 200000,
      [&](uint64_t Index, const Certificate &C) {
        return Correct(0, Index, C);
      });

  Got = Answers();
  std::vector<LoadResult> PlainTurns = OpenLoop(share(Opts, 4), 0);
  LoadResult Plain = pooled(PlainTurns);
  uint64_t Sent = Plain.Issued;
  account(Out, "untraced latency phase", Plain, Got);
  double PlainP50 = TurnQuantile(PlainTurns, 0.5);

  Got = Answers();
  StoreStats Before = S.Cache->stats();
  Timing.reset();
  Timing.setEnabled(true);
  std::vector<LoadResult> TracedTurns = OpenLoop(share(Opts, 4), Sent);
  LoadResult Traced = pooled(TracedTurns);
  S.Server->drain();
  Timing.setEnabled(false);
  account(Out, "traced latency phase", Traced, Got);
  noteLateness(Out, Traced);
  noteLatency(Out, "traced open-loop", latenciesUs(Traced.Requests));
  std::vector<TracedRequest> Joined = joinSpans(Traced.Requests, Timing.spans());
  reportTracedRequests(Out, Joined);
  keepTrace("socket", std::move(Joined));
  reportShares(Out, Before, S.Cache->stats());
  reportRecordBytes(Out, S);
  double TracedP50 = TurnQuantile(TracedTurns, 0.5);
  Out.note("tracing overhead: latency p50 %.2f us untraced, %.2f us traced",
           PlainP50, TracedP50);
  Out.metric("trace.overhead_pct", 100.0 * (TracedP50 - PlainP50) / PlainP50);

  std::vector<ReplayQuery> Queries;
  std::vector<Certificate> Answers;
  for (uint64_t I = 0; I < 256; ++I) {
    Resolved R = Resolve(0, I);
    Queries.push_back({rowOf(S.Data.Split.Test, R.Q->Row), R.Budget});
    Answers.push_back(expectedHotAnswer(Warm[R.Q->Row], R.Budget));
  }
  replayCodec(Out, Queries, Answers);
  Queries.resize(32);
  replayKernels(Out, *S.Fresh, Queries, servingQuery(), share(Opts, 8));
  return true;
}

//===----------------------------------------------------------------------===//
// serve_cold
//===----------------------------------------------------------------------===//

bool perfbench::runServeCold(const Options &Opts, Report &Out) {
  const ServingSpec Spec = {"mnist17-binary", /*Jobs=*/2, /*Disk=*/true,
                            ColdCallers};
  const VerifierConfig Query = servingQuery();
  std::unique_ptr<ColdQueryStream> Stream;
  Answers Got;
  double RssAtMark = 0;
  uint64_t Answered = 0;
  // Queries kept for re-verification, with the certificate served.
  struct Sampled {
    std::vector<float> X;
    Certificate Served;
  };
  std::vector<Sampled> Samples;
  std::vector<std::vector<float>> SampleX; // By index / ColdSampleEvery.
  uint64_t SampleOffset = Opts.Seed % ColdSampleEvery;
  std::vector<Certificate> FirstAnswers;

  auto Framer = [&](uint64_t Index, std::string &Frame) {
    NetRequest Request;
    Request.Tag = Index;
    Request.PoisoningBudget = ColdBudget;
    Stream->next(Request.X);
    if (Index % ColdSampleEvery == SampleOffset)
      SampleX.push_back(Request.X);
    Frame = encodeRequestFrame(Request);
    return queryKey(Request.X.data(), static_cast<unsigned>(Request.X.size()),
                    ColdBudget);
  };
  // A fresh verification at the queried budget: a deterministic verdict
  // at exactly that radius under the server's configuration.
  auto Plausible = [&](const Certificate &C) {
    return (C.Kind == VerdictKind::Robust || C.Kind == VerdictKind::Unknown) &&
           C.PoisoningBudget == ColdBudget && C.CertifiedRadius == ColdBudget &&
           C.Depth == Query.Depth && C.Domain == Query.Domain &&
           C.Threat == Query.Threat &&
           (!C.isRobust() || C.DominatingClass == C.ConcretePrediction);
  };
  auto Checker = [&](uint64_t Index, const NetResponse &Response) {
    Got.count(Response, Plausible(Response.Cert));
    if (Index % ColdSampleEvery == SampleOffset &&
        Index / ColdSampleEvery < SampleX.size() &&
        Samples.size() < ColdSampleMax)
      Samples.push_back({SampleX[Index / ColdSampleEvery], Response.Cert});
    if (FirstAnswers.size() < 64)
      FirstAnswers.push_back(Response.Cert);
    if (++Answered == ColdRssMark)
      RssAtMark = peakRssMb();
  };
  auto Reset = [&]() {
    Got = Answers();
    Answered = 0;
    RssAtMark = 0;
    Samples.clear();
    SampleX.clear();
    FirstAnswers.clear();
  };

  // Set-up: a fresh store directory each time, and a few untimed
  // verifications through both connections from a separate stream.
  std::unique_ptr<ServingStack> Kept =
      setUp(Opts, Spec, Out,
            [&](ServingStack &S, unsigned, std::string &Error) {
        // The verifications run wherever the scheduler puts them, as in
        // the measured closed loop.
        moveAllThreads(allowedCpus());
        Stream = std::make_unique<ColdQueryStream>(S.Data.Split.Test,
                                                   Opts.Seed ^ 0x5741524dULL);
        Reset();
        std::vector<ClientConn *> Conns;
        for (ClientConn &C : S.Conns)
          Conns.push_back(&C);
        ClosedLoop Few;
        Few.Seconds = 60;
        Few.MaxRequests = ColdWarmRequests;
        LoadResult L = runClosedLoop(Conns, Few, Framer, Checker);
        if (!L.Error.empty() || Got.failed()) {
          Error = "warm-up verification failed: " + L.Error;
          return false;
        }
        Stream = std::make_unique<ColdQueryStream>(S.Data.Split.Test,
                                                   Opts.Seed);
        return true;
      });
  if (!Kept)
    return false;
  ServingStack &S = *Kept;
  std::vector<ClientConn *> Conns;
  for (ClientConn &C : S.Conns)
    Conns.push_back(&C);

  // Re-verifies the sampled answers with the cache-less verifier.
  auto Reverify = [&](const char *Phase) {
    uint64_t Mismatch = 0;
    for (const Sampled &Sm : Samples) {
      Certificate Fresh = S.Fresh->verify(Sm.X.data(), ColdBudget, Query);
      if (Fresh.Kind != Sm.Served.Kind ||
          Fresh.DominatingClass != Sm.Served.DominatingClass ||
          Fresh.CertifiedRadius != Sm.Served.CertifiedRadius)
        ++Mismatch;
    }
    Out.note("%s: re-verified %zu sampled answers with a cache-less "
             "verifier, %llu mismatched",
             Phase, Samples.size(), static_cast<unsigned long long>(Mismatch));
    if (Mismatch)
      Out.fail(Mismatch, std::string(Phase) +
                             ": served verdict differs from a fresh verify");
    if (Samples.empty())
      Out.fail(1, std::string(Phase) + ": nothing sampled to re-verify");
  };

  if (!Opts.Trace) {
    Reset();
    StoreStats Before = S.Cache->stats();
    ClosedLoop Callers;
    Callers.Seconds = Opts.Seconds;
    Callers.Windows = 10;
    Callers.KeepRecords = true;
    LoadResult L = runClosedLoop(Conns, Callers, Framer, Checker);
    double RssEnd = peakRssMb();
    account(Out, "closed loop", L, Got);
    StoreStats After = S.Cache->stats();
    Out.note("closed loop: %llu requests over %u callers; RAM tier %llu "
             "hits, %llu misses",
             static_cast<unsigned long long>(L.Decoded), ColdCallers,
             static_cast<unsigned long long>(After.Hits + After.RangeHits -
                                             Before.Hits - Before.RangeHits),
             static_cast<unsigned long long>(After.Misses - Before.Misses));
    Reverify("closed loop");
    std::vector<double> Us = latenciesUs(L.Requests);
    noteLatency(Out, "closed-loop", Us);
    Out.metric("latency_p50_ms", quantile(Us, 0.5) / 1e3);
    Out.metric("latency_p90_ms", quantile(Us, 0.9) / 1e3);
    double Capacity = median(L.WindowRps);
    Out.metric("capacity_rps", Capacity);
    Out.metric("cpu_us_per_req", median(L.WindowCpuUs));
    // The same measurement as capacity_rps, in the sweep's unit.
    Out.metric("sweep_s", ColdPass / Capacity);
    Out.note("peak RSS %.1f MB after %llu answers, %.1f MB at the end",
             RssAtMark, static_cast<unsigned long long>(ColdRssMark), RssEnd);
    Out.metric("peak_rss_mb", RssAtMark ? RssAtMark : RssEnd);
    return true;
  }

  TimingStore &Timing = *S.Timing;
  Reset();
  ClosedLoop Callers;
  Callers.Seconds = share(Opts, 3);
  Callers.KeepRecords = true;
  LoadResult Plain = runClosedLoop(Conns, Callers, Framer, Checker);
  account(Out, "untraced closed loop", Plain, Got);
  double PlainP50 = quantile(latenciesUs(Plain.Requests), 0.5);

  Reset();
  StoreStats Before = S.Cache->stats();
  Timing.reset();
  Timing.setEnabled(true);
  LoadResult Traced = runClosedLoop(Conns, Callers, Framer, Checker);
  S.Server->drain();
  Timing.setEnabled(false);
  account(Out, "traced closed loop", Traced, Got);
  Reverify("traced closed loop");
  std::vector<double> TracedUs = latenciesUs(Traced.Requests);
  noteLatency(Out, "traced closed-loop", TracedUs);
  std::vector<TracedRequest> Joined = joinSpans(Traced.Requests, Timing.spans());
  reportTracedRequests(Out, Joined);
  keepTrace("socket", std::move(Joined));
  reportShares(Out, Before, S.Cache->stats());
  reportRecordBytes(Out, S);
  double TracedP50 = quantile(TracedUs, 0.5);
  Out.note("tracing overhead: latency p50 %.1f us untraced, %.1f us traced",
           PlainP50, TracedP50);
  Out.metric("trace.overhead_pct", 100.0 * (TracedP50 - PlainP50) / PlainP50);
  std::vector<Certificate> Answers = FirstAnswers;

  Reset();
  replayCertServer(
      Out, *S.Server, Timing,
      [&](uint64_t) {
        ReplayQuery Q;
        Q.Budget = ColdBudget;
        Stream->next(Q.X);
        return Q;
      },
      ColdCallers, share(Opts, 6), 100000,
      [&](uint64_t, const Certificate &C) { return Plausible(C); });

  std::vector<ReplayQuery> Queries(64);
  for (ReplayQuery &Q : Queries) {
    Q.Budget = ColdBudget;
    Stream->next(Q.X);
  }
  replayCodec(Out, Queries, Answers);
  Queries.resize(4);
  replayKernels(Out, *S.Fresh, Queries, Query, share(Opts, 8));
  return true;
}
