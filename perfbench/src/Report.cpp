//===- perfbench/src/Report.cpp - Metric tables and the result line -------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Stats.h"

#include "support/MemoryUsage.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sched.h>
#include <set>

using namespace perfbench;

const std::vector<MetricSpec> &perfbench::endToEndMetrics() {
  static const std::vector<MetricSpec> Table = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"capacity_rps", "1/s"},
      {"cpu_us_per_req", "us"},
      {"peak_rss_mb", "MB"},
      {"sweep_s", "s"},
  };
  return Table;
}

const std::vector<MetricSpec> &perfbench::perLayerMetrics() {
  static const std::vector<MetricSpec> Table = {
      {"net.front_us.p50", "us"},
      {"net.front_us.p90", "us"},
      {"net.back_us.p50", "us"},
      {"net.back_us.p90", "us"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.request_bytes", "B"},
      {"net.response_bytes", "B"},
      {"certserver.inproc_rtt_us", "us"},
      {"certserver.queue_wait_us", "us"},
      {"certserver.completion_us", "us"},
      {"certserver.pending_at_submit", "count"},
      {"store.lookup_us.p50", "us"},
      {"store.lookup_us.p99", "us"},
      {"store.lookup_exact_us.p50", "us"},
      {"store.lookup_range_us.p50", "us"},
      {"store.hit_share", "ratio"},
      {"store.range_hit_share", "ratio"},
      {"store.miss_share", "ratio"},
      {"store.write_us.p50", "us"},
      {"store.write_us.p99", "us"},
      {"store.record_bytes", "B"},
      {"store.open_s", "s"},
      {"verifier.verify_us.p50", "us"},
      {"verifier.verify_us.p90", "us"},
      {"verifier.calls", "count"},
      {"verifier.best_split_calls", "count"},
      {"verifier.peak_disjuncts", "count"},
      {"verifier.peak_state_kb", "KiB"},
      {"verifier.terminals", "count"},
      {"verifier.cell_s.1.box", "s"},
      {"verifier.cell_s.1.disjuncts", "s"},
      {"verifier.cell_s.2.box", "s"},
      {"verifier.cell_s.2.disjuncts", "s"},
      {"verifier.cell_s.3.box", "s"},
      {"verifier.cell_s.3.disjuncts", "s"},
      {"verifier.cell_s.4.box", "s"},
      {"verifier.cell_s.4.disjuncts", "s"},
      {"abstract.dtrace_us", "us"},
      {"abstract.best_split_us", "us"},
      {"abstract.filter_us", "us"},
      {"abstract.gini_us", "us"},
      {"data.load_s", "s"},
      {"data.verifier_build_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  return Table;
}

void Report::metric(const std::string &Name, double Value) {
  for (const std::vector<MetricSpec> *Table :
       {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricSpec &Spec : *Table)
      if (Name == Spec.Name) {
        Metrics.push_back({Name, Value, Spec.Unit});
        note("metric %s = %.6g %s", Name.c_str(), Value, Spec.Unit);
        return;
      }
  std::fprintf(stderr, "internal error: unknown metric '%s'\n",
               Name.c_str());
  std::abort();
}

void Report::atReferenceSpeed(double Slowdown) {
  for (Metric &M : Metrics) {
    if (M.Unit == "s" || M.Unit == "ms" || M.Unit == "us")
      M.Value /= Slowdown;
    else if (M.Unit == "1/s")
      M.Value *= Slowdown;
    else
      continue;
    note("metric %s = %.6g %s at the reference speed", M.Name.c_str(),
         M.Value, M.Unit.c_str());
  }
}

void Report::fail(uint64_t Count, const std::string &Why) {
  Failed += Count;
  note("FAILED %llu: %s", static_cast<unsigned long long>(Count),
       Why.c_str());
}

void Report::note(const char *Format, ...) {
  va_list Args;
  va_start(Args, Format);
  std::vfprintf(stdout, Format, Args);
  va_end(Args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void Answers::count(const antidote::NetResponse &Response, bool Right) {
  if (Response.Status == antidote::NetStatus::Shed ||
      Response.Path == antidote::NetServePath::ShedProbe)
    ++Shed;
  else if (Response.Status == antidote::NetStatus::Error)
    ++Error;
  else if (Right)
    ++Ok;
  else
    ++WrongCert;
}

void perfbench::reportAnswers(Report &Out, const std::string &Phase,
                              uint64_t Attempted, const Answers &Got) {
  uint64_t Answered = Got.Ok + Got.failed();
  uint64_t Unanswered = Attempted > Answered ? Attempted - Answered : 0;
  Out.attempted(Attempted);
  Out.note("%s: attempted %llu, ok %llu, shed %llu, error %llu, wrong "
           "certificate %llu, unanswered %llu",
           Phase.c_str(), static_cast<unsigned long long>(Attempted),
           static_cast<unsigned long long>(Got.Ok),
           static_cast<unsigned long long>(Got.Shed),
           static_cast<unsigned long long>(Got.Error),
           static_cast<unsigned long long>(Got.WrongCert),
           static_cast<unsigned long long>(Unanswered));
  const std::pair<uint64_t, const char *> Bad[] = {
      {Got.Shed, "shed"},
      {Got.Error, "error responses"},
      {Got.WrongCert, "wrong certificates"},
      {Unanswered, "unanswered"}};
  for (const auto &[Count, What] : Bad)
    if (Count)
      Out.fail(Count, Phase + ": " + What);
}

void perfbench::noteSeries(Report &Out, const char *What,
                           const std::vector<double> &Values) {
  std::string Line;
  char Buf[32];
  for (double V : Values) {
    std::snprintf(Buf, sizeof(Buf), " %.4g", V);
    Line += Buf;
  }
  Out.note("%s:%s", What, Line.c_str());
}

void perfbench::noteLatency(Report &Out, const char *What,
                            std::vector<double> Us) {
  std::sort(Us.begin(), Us.end());
  double P99 = quantileSorted(Us, 0.99), P999 = quantileSorted(Us, 0.999);
  Out.note("%s latency over %zu requests: p50 %.1f us, p90 %.1f us, "
           "p99 %.1f us (%zu beyond), p999 %.1f us (%zu beyond), max %.1f us "
           "[p99 and p999 are printed, not bounded]",
           What, Us.size(), quantileSorted(Us, 0.5), quantileSorted(Us, 0.9),
           P99, countAbove(Us, P99), P999, countAbove(Us, P999),
           Us.empty() ? 0.0 : Us.back());
}

void perfbench::reportUnmeasuredLayers(Report &Out) {
  std::set<std::string> Have;
  for (const Report::Metric &M : Out.Metrics)
    Have.insert(M.Name);
  for (const MetricSpec &Spec : perLayerMetrics())
    if (!Have.count(Spec.Name))
      Out.metric(Spec.Name, 0.0);
}

double perfbench::peakRssMb() {
  return static_cast<double>(antidote::processPeakRssBytes()) /
         (1024.0 * 1024.0);
}

namespace {

/// The reference kernel's median time on a 4-vCPU 2.1 GHz x86 VM, the
/// host the benchmark was written on.
constexpr double ReferenceKernelSeconds = 0.024;

/// Keeps the kernel's result live.
volatile uint64_t KernelSink;

/// One run of the reference kernel on the calling thread: xorshift-indexed
/// updates over a 4 MiB table, so cache-missing memory traffic mixes with
/// integer work, as in the verifier's frontier. Returns its seconds.
double referenceKernel() {
  static std::vector<uint64_t> Table(1u << 19); // Zeroed, so paged in.
  int64_t T0 = nowNs();
  uint64_t X = 88172645463325252ULL, Sum = 0;
  for (int Rep = 0; Rep < 10; ++Rep)
    for (size_t I = 0; I < Table.size(); ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Table[X & (Table.size() - 1)] += X;
      Sum += Table[I];
    }
  KernelSink = Sum;
  return (nowNs() - T0) / 1e9;
}

std::vector<double> &kernelSeconds() {
  static std::vector<double> Samples;
  return Samples;
}

} // namespace

void perfbench::sampleHostSpeed(unsigned Rounds) {
  const std::vector<int> &Cpus = allowedCpus();
  for (unsigned R = 0; R < Rounds; ++R)
    for (int Cpu : Cpus) {
      pinThread(0, {Cpu});
      kernelSeconds().push_back(referenceKernel());
    }
  pinThread(0, Cpus);
}

double perfbench::hostSlowdown() {
  return median(kernelSeconds()) / ReferenceKernelSeconds;
}

const std::vector<int> &perfbench::allowedCpus() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Set;
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
        if (CPU_ISSET(Cpu, &Set))
          Out.push_back(Cpu);
    return Out;
  }();
  return Cpus;
}

std::vector<int> perfbench::threadIds() {
  std::vector<int> Tids;
  std::error_code Ec;
  for (const auto &Task :
       std::filesystem::directory_iterator("/proc/self/task", Ec))
    Tids.push_back(std::atoi(Task.path().filename().c_str()));
  std::sort(Tids.begin(), Tids.end());
  return Tids;
}

void perfbench::pinThread(int Tid, const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Set);
  sched_setaffinity(Tid, sizeof(Set), &Set);
}

void perfbench::moveAllThreads(const std::vector<int> &Cpus) {
  for (int Tid : threadIds())
    pinThread(Tid, Cpus);
}

bool perfbench::printResult(const Report &Out,
                            const std::vector<MetricSpec> &Table) {
  std::string Json;
  char Buf[256];
  for (const MetricSpec &Spec : Table) {
    const Report::Metric *Found = nullptr;
    for (const Report::Metric &M : Out.Metrics)
      if (M.Name == Spec.Name)
        Found = &M;
    if (!Found || !std::isfinite(Found->Value)) {
      std::fprintf(stderr, "error: metric %s was not measured\n", Spec.Name);
      return false;
    }
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  Json.empty() ? "" : ", ", Spec.Name, Found->Value,
                  Spec.Unit);
    Json += Buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Out.Failed == 0 && Out.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Json.c_str());
  std::fflush(stdout);
  return true;
}
