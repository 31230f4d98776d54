//===- perfbench/src/Bench.h - Workloads and reporting ----------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the command-line options, the
/// report every number and failure goes into, and the per-layer
/// measurements the traced runs take by calling into each layer's public
/// functions from outside.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_PERFBENCH_BENCH_H
#define ANTIDOTE_PERFBENCH_BENCH_H

#include "LoadGen.h"
#include "TimingStore.h"

#include "antidote/Verifier.h"
#include "serving/CertServer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch space for store directories; removed at exit.
  std::string WorkDir = ".bench_build/perfbench-work";
  /// Where a traced run writes its spans; empty = not written.
  std::string TraceOut;
};

/// Everything one run reports. Human-readable lines go to stdout as they
/// are produced; the metrics become the final JSON line.
class Report {
public:
  /// Records metric \p Name (its unit comes from the metric tables).
  void metric(const std::string &Name, double Value);
  /// Rescales every time and rate metric recorded so far to the reference
  /// host speed (see `hostSlowdown`): times divided by \p Slowdown, rates
  /// multiplied by it.
  void atReferenceSpeed(double Slowdown);
  /// Counts \p Count operations that were attempted.
  void attempted(uint64_t Count) { Attempted += Count; }
  /// Counts \p Count failed operations (wrong, missing, shed or erroneous
  /// answers, or a broken run), with a line saying why.
  void fail(uint64_t Count, const std::string &Why);
  /// A human-readable line (printf-style), printed at once.
  void note(const char *Format, ...) __attribute__((format(printf, 2, 3)));

  struct Metric {
    std::string Name;
    double Value = 0.0;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// How the answers to one phase's requests came back.
struct Answers {
  uint64_t Ok = 0;        ///< Correct certificates.
  uint64_t Shed = 0;      ///< Shed responses and shed-path probe answers.
  uint64_t Error = 0;     ///< Error responses.
  uint64_t WrongCert = 0; ///< Certificates that fail the workload's check.

  /// Files \p Response; \p Right says whether its certificate passed the
  /// workload's check.
  void count(const antidote::NetResponse &Response, bool Right);
  uint64_t failed() const { return Shed + Error + WrongCert; }
};

/// Counts \p Attempted operations, prints them beside the ok, shed, error,
/// wrong-certificate and unanswered counts of \p Got, and fails every
/// operation that was not ok.
void reportAnswers(Report &Out, const std::string &Phase, uint64_t Attempted,
                   const Answers &Got);

/// The three workloads; each returns false when it could not run at all.
bool runServeHot(const Options &Opts, Report &Out);
bool runServeCold(const Options &Opts, Report &Out);
bool runSweep(const Options &Opts, Report &Out);

/// Prints \p Values (one per set-up, turn, window or pass), so a run
/// shows how steady the median it reports was.
void noteSeries(Report &Out, const char *What,
                const std::vector<double> &Values);

/// Latency distribution lines: p50/p90/p99/p999 and the samples beyond
/// each tail, which are printed but never bounded.
void noteLatency(Report &Out, const char *What, std::vector<double> Us);

/// One request's passage, client stamps joined with its store span.
struct TracedRequest {
  RequestRecord Client;
  StoreSpan Span;
};

/// Joins client records to store spans by key, first-in first-out per
/// key (the server keeps the order of equal queries). Records without a
/// span are dropped.
std::vector<TracedRequest> joinSpans(const std::vector<RequestRecord> &Reqs,
                                     const std::vector<StoreSpan> &Spans);

/// Prints the per-request phase breakdown — generator lateness, client to
/// store, store probe, verification, write-through, store to client —
/// whose parts sum to each request's latency, and reports the layer
/// metrics derived from it (net.*, store.lookup/write, verifier.*).
void reportTracedRequests(Report &Out, const std::vector<TracedRequest> &Reqs);

/// store.lookup/write and verifier.* from store spans alone (the sweep,
/// which has no client side).
void reportStoreSpans(Report &Out, const std::vector<StoreSpan> &Spans);

/// Replays \p Queries through `CertServer::submit` (no socket) with
/// \p Window in flight for at most \p Seconds / \p MaxRequests, with the
/// decorator recording, and reports certserver.*. \p Check sees every
/// answer.
struct ReplayQuery {
  std::vector<float> X;
  uint32_t Budget = 0;
};
void replayCertServer(Report &Out, antidote::CertServer &Server,
                      TimingStore &Timing,
                      const std::function<ReplayQuery(uint64_t)> &Query,
                      unsigned Window, double Seconds, uint64_t MaxRequests,
                      const std::function<bool(uint64_t,
                                               const antidote::Certificate &)>
                          &Check);

/// Times `encodeResponseFrame` / `decodeRequestPayload` on the workload's
/// own requests and answers, and reports net.encode/decode and frame
/// sizes.
void replayCodec(Report &Out, const std::vector<ReplayQuery> &Queries,
                 const std::vector<antidote::Certificate> &Answers);

/// Times the abstract kernels on each query's root ⟨T, n⟩ state under
/// \p Config, for at most \p Seconds, and reports abstract.*.
void replayKernels(Report &Out, const antidote::Verifier &V,
                   const std::vector<ReplayQuery> &Queries,
                   const antidote::VerifierConfig &Config, double Seconds);

/// Reports every per-layer metric the workload's traced run did not
/// measure as 0: that layer does no work on this workload.
void reportUnmeasuredLayers(Report &Out);

/// Keeps \p Reqs in memory, labelled \p Phase, until `writeTrace`.
void keepTrace(const std::string &Phase, std::vector<TracedRequest> Reqs);

/// Writes every kept request as one tab-separated line to \p Path (no-op
/// when empty); false when the file cannot be written.
bool writeTrace(const std::string &Path);

/// VmHWM in MiB.
double peakRssMb();

/// Host speed. On a shared host the CPUs run 20-40 % faster or slower for
/// minutes at a time, and the sweep's times move with them. The sweep
/// times a fixed reference kernel — the benchmark's own code, never the
/// program's — on every allowed CPU before its set-ups and between its
/// passes, when no other thread exists, and reports its end-to-end times
/// at the reference speed: each divided (a rate multiplied) by
/// `hostSlowdown()`.
///
/// Runs the kernel \p Rounds times on each allowed CPU, pinning the
/// calling thread to each in turn and then to all of them again.
void sampleHostSpeed(unsigned Rounds);
/// The median kernel time sampled so far over its time on the host the
/// benchmark was written on: above 1 when this host runs slower.
double hostSlowdown();

/// The CPUs the process may run on, as read at the first call (which
/// `main` makes before anything is pinned).
const std::vector<int> &allowedCpus();

/// The process's thread ids, ascending — the server's threads too, which
/// the benchmark reaches only through /proc/self/task.
std::vector<int> threadIds();

/// Restricts thread \p Tid (0 = the calling thread) to \p Cpus.
void pinThread(int Tid, const std::vector<int> &Cpus);

/// Restricts every thread of the process to \p Cpus.
void moveAllThreads(const std::vector<int> &Cpus);

/// The metric tables `BENCHMARK.json` lists, in its order.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/// Prints the result line: every metric of \p Table, in table order.
/// False (and nothing printed) when \p Out lacks one of them.
bool printResult(const Report &Out, const std::vector<MetricSpec> &Table);

/// `Seconds` of work split into \p Parts.
inline double share(const Options &Opts, double Parts) {
  return Opts.Seconds / Parts;
}

} // namespace perfbench

#endif // ANTIDOTE_PERFBENCH_BENCH_H
