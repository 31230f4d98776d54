//===- perfbench/src/main.cpp - The benchmark's command line --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
//   antidote_perfbench --workload serve_hot|serve_cold|sweep --seed N
//                      --seconds S --trace 0|1 [--work-dir DIR]
//                      [--trace-out FILE]
//   antidote_perfbench --selftest
//
// Prints human-readable lines, then one JSON line: the end-to-end metrics
// (--trace 0) or the per-layer ones (--trace 1). Exit 0 once that line
// is printed, 1 when the run could not be completed, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sys/prctl.h>

using namespace perfbench;

int runSelfTest();

namespace {

bool parseArgs(int Argc, char **Argv, Options &Opts, bool &SelfTest) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--selftest") {
      SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value, &End, 10);
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value, &End);
      if (!(Opts.Seconds > 0 && Opts.Seconds <= 600))
        return false;
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1"))
        return false;
      Opts.Trace = Value[0] == '1';
    } else if (Flag == "--work-dir") {
      Opts.WorkDir = Value;
    } else if (Flag == "--trace-out") {
      Opts.TraceOut = Value;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return SelfTest || Opts.Workload == "serve_hot" ||
         Opts.Workload == "serve_cold" || Opts.Workload == "sweep";
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  bool SelfTest = false;
  if (!parseArgs(Argc, Argv, Opts, SelfTest)) {
    std::fprintf(stderr,
                 "usage: antidote_perfbench --workload "
                 "serve_hot|serve_cold|sweep --seed N --seconds S --trace "
                 "0|1 [--work-dir DIR] [--trace-out FILE]\n"
                 "       antidote_perfbench --selftest\n");
    return 2;
  }
  if (SelfTest)
    return runSelfTest();

  // The generator sleeps to the nanosecond; the default 50 us timer slack
  // would make every open-loop send late by up to that much.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  allowedCpus(); // Read the CPU set before any phase pins threads.

  std::error_code Ec;
  std::filesystem::remove_all(Opts.WorkDir, Ec);
  std::filesystem::create_directories(Opts.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n",
                 Opts.WorkDir.c_str(), Ec.message().c_str());
    return 1;
  }

  Report Out;
  Out.note("workload %s, seed %llu, %.1f s measured, trace %d",
           Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
           Opts.Seconds, Opts.Trace ? 1 : 0);
  bool Ran = Opts.Workload == "serve_hot"    ? runServeHot(Opts, Out)
             : Opts.Workload == "serve_cold" ? runServeCold(Opts, Out)
                                             : runSweep(Opts, Out);
  std::filesystem::remove_all(Opts.WorkDir, Ec);
  if (!Ran)
    return 1;
  if (Opts.Trace) {
    reportUnmeasuredLayers(Out);
    if (!writeTrace(Opts.TraceOut)) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.TraceOut.c_str());
      return 1;
    }
    if (!Opts.TraceOut.empty())
      Out.note("spans written to %s", Opts.TraceOut.c_str());
  }
  Out.note("attempted %llu, failed %llu",
           static_cast<unsigned long long>(Out.Attempted),
           static_cast<unsigned long long>(Out.Failed));
  return printResult(Out, Opts.Trace ? perLayerMetrics() : endToEndMetrics())
             ? 0
             : 1;
}
