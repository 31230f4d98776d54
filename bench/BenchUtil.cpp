//===- bench/BenchUtil.cpp - Shared figure-bench harness ----------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "antidote/Report.h"
#include "serving/CertCache.h"
#include "support/MemoryUsage.h"
#include "support/Parse.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace antidote;
using namespace antidote::benchutil;

SweepConfig antidote::benchutil::paperScaleConfig() {
  SweepConfig Config;
  Config.Depths = {1, 2, 3, 4};
  Config.InstanceLimits.TimeoutSeconds = 3600.0;
  Config.InstanceLimits.MaxDisjuncts = 1u << 22;
  Config.InstanceLimits.MaxStateBytes = 32ull << 30;
  Config.MaxPoisoning = 1u << 14;
  return Config;
}

SweepConfig antidote::benchutil::scaledConfig() {
  SweepConfig Config;
  Config.Depths = {1, 2, 3, 4};
  Config.InstanceLimits.TimeoutSeconds = 1.0;
  Config.InstanceLimits.MaxDisjuncts = 1u << 16;
  Config.InstanceLimits.MaxStateBytes = 1ull << 30;
  Config.MaxPoisoning = 1u << 12;
  return Config;
}

unsigned antidote::benchutil::benchJobsFromEnv() {
  // Mirror the CLI parsers (shared report in support/Parse): a typo must
  // not silently become 0 (bare atoi) or wrap to a huge unsigned and
  // spawn a clamped-but-large pool.
  EnvNumber Env = readUnsignedEnvReporting(
      "ANTIDOTE_JOBS", "all cores", std::numeric_limits<unsigned>::max());
  if (Env.Status == EnvNumberStatus::Malformed)
    std::exit(2);
  return Env.Status == EnvNumberStatus::Ok
             ? static_cast<unsigned>(Env.Value)
             : 1;
}

std::optional<uint64_t> antidote::benchutil::benchCacheBytesFromEnv() {
  EnvNumber Env =
      readUnsignedEnvReporting("ANTIDOTE_CACHE_BYTES", "unbounded");
  if (Env.Status == EnvNumberStatus::Malformed)
    std::exit(2);
  if (Env.Status == EnvNumberStatus::Unset)
    return std::nullopt;
  return Env.Value;
}

SweepResult
antidote::benchutil::runFigureBench(const FigureBenchSpec &Spec) {
  BenchScale Scale = benchScaleFromEnv();
  SweepConfig Config = Scale == BenchScale::Full ? Spec.Full : Spec.Scaled;
  Config.Jobs = benchJobsFromEnv();
  std::optional<uint64_t> CacheBytes = benchCacheBytesFromEnv();
  std::unique_ptr<CertCache> Cache;
  if (CacheBytes) {
    Cache = std::make_unique<CertCache>(*CacheBytes);
    Config.Cache = Cache.get();
  }

  BenchmarkDataset Bench = loadBenchmarkDataset(Spec.DatasetName, Scale);
  std::printf("=== %s reproduction: %s ===\n", Spec.PaperFigure.c_str(),
              Spec.DatasetName.c_str());
  std::printf("scale: %s (set ANTIDOTE_BENCH_SCALE=full for paper scale); "
              "jobs: %u (ANTIDOTE_JOBS; 0 = all cores); "
              "cert cache: %s (ANTIDOTE_CACHE_BYTES)\n",
              Scale == BenchScale::Full ? "full" : "scaled", Config.Jobs,
              Cache ? "on" : "off");
  std::printf("train %u rows x %u features; verifying %zu test inputs; "
              "timeout %.1fs/instance\n\n",
              Bench.Split.Train.numRows(), Bench.Split.Train.numFeatures(),
              Bench.VerifyRows.size(),
              Config.InstanceLimits.TimeoutSeconds);

  Timer Total;
  SweepResult Result = runPoisoningSweep(Bench.Split.Train, Bench.Split.Test,
                                         Bench.VerifyRows, Config);

  // The three panels of Figures 7-11.
  for (const SweepSeries &Series : Result.Series) {
    std::printf("--- depth %u, %s domain ---\n", Series.Depth,
                Series.DomainName.c_str());
    TableWriter Table({"n", "attempted", "verified", "timeouts",
                       "resource", "avg time", "avg peak state mem"});
    for (const SweepCell &Cell : Series.Cells)
      Table.addRow({std::to_string(Cell.Poisoning),
                    std::to_string(Cell.Attempted),
                    std::to_string(Cell.Verified),
                    std::to_string(Cell.Timeouts),
                    std::to_string(Cell.ResourceFailures),
                    formatSeconds(Cell.avgSeconds()),
                    formatBytes(Cell.avgPeakStateBytes())});
    Table.print();
    std::printf("\n");
  }

  printFractionVerifiedSeries(Spec.DatasetName, Result, Config.Depths);

  if (!Spec.PaperShapeNotes.empty()) {
    std::printf("paper-reported shape (compare with the panels "
                "above):\n");
    for (const std::string &Note : Spec.PaperShapeNotes)
      std::printf("  - %s\n", Note.c_str());
  }
  if (Cache)
    std::printf("certificate cache: %s\n",
                Cache->stats().summary().c_str());
  std::printf("\ntotal bench time: %s; process peak RSS: %s\n\n",
              formatSeconds(Total.seconds()).c_str(),
              formatBytes(static_cast<double>(processPeakRssBytes()))
                  .c_str());
  return Result;
}

void antidote::benchutil::printFractionVerifiedSeries(
    const std::string &DatasetName, const SweepResult &Result,
    const std::vector<unsigned> &Depths) {
  std::printf("--- fraction verified vs n (Figure 6 panel: %s; either "
              "domain) ---\n",
              DatasetName.c_str());
  std::vector<std::string> Headers = {"n"};
  for (unsigned Depth : Depths)
    Headers.push_back("depth " + std::to_string(Depth));
  TableWriter Table(std::move(Headers));
  std::vector<uint32_t> AllNs;
  for (unsigned Depth : Depths)
    for (uint32_t N : Result.attemptedPoisonings(Depth))
      AllNs.push_back(N);
  std::sort(AllNs.begin(), AllNs.end());
  AllNs.erase(std::unique(AllNs.begin(), AllNs.end()), AllNs.end());
  for (uint32_t N : AllNs) {
    std::vector<std::string> Row = {std::to_string(N)};
    for (unsigned Depth : Depths)
      Row.push_back(formatPercent(Result.fractionVerified(Depth, N)));
    Table.addRow(std::move(Row));
  }
  Table.print();
  std::printf("\n");
}
