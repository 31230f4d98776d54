//===- bench/BenchUtil.h - Shared figure-bench harness ----------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common driver behind the per-figure bench binaries (Figures 6-11):
/// load a benchmark dataset at the active scale, run the §6.1 protocol,
/// and print the three panels each figure plots — #verified, average time,
/// and average peak abstract-state memory — per depth, domain, and n.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_BENCH_BENCHUTIL_H
#define ANTIDOTE_BENCH_BENCHUTIL_H

#include "antidote/Sweep.h"
#include "data/Registry.h"

#include <optional>
#include <string>

namespace antidote {
namespace benchutil {

/// Everything one figure bench needs.
struct FigureBenchSpec {
  std::string DatasetName;   ///< Registry name.
  std::string PaperFigure;   ///< e.g. "Figure 7".
  SweepConfig Scaled;        ///< Protocol parameters at BenchScale::Scaled.
  SweepConfig Full;          ///< Protocol parameters at BenchScale::Full.

  /// Qualitative expectations from the paper, echoed in the output so
  /// readers can eyeball the shape match against the panels above.
  std::vector<std::string> PaperShapeNotes;
};

/// Protocol parameters matching the paper (1 h timeout; the memory cap
/// stands in for their 160 GB machine).
SweepConfig paperScaleConfig();

/// Scaled-down defaults used when ANTIDOTE_BENCH_SCALE != full.
SweepConfig scaledConfig();

/// Reads ANTIDOTE_JOBS: the sweep's verification worker threads ("0" =
/// one per hardware thread). Defaults to 1 (serial).
unsigned benchJobsFromEnv();

/// Reads ANTIDOTE_CACHE_BYTES: when set, the figure bench attaches a
/// certificate cache with this byte budget ("0" = unbounded) to its
/// sweep and reports the hit/miss stats. Unset (the default) runs
/// cache-less — a single sweep's probes rarely repeat a query, so the
/// cache is plumbing to exercise, not a figure-bench speedup.
std::optional<uint64_t> benchCacheBytesFromEnv();

/// Runs the spec at the scale selected by the environment and prints the
/// figure panels. Returns the sweep result for further custom reporting.
SweepResult runFigureBench(const FigureBenchSpec &Spec);

/// Prints the Figure 6-style "fraction verified vs n" series (union over
/// the configured domains, as the paper's parallel-run setup does).
void printFractionVerifiedSeries(const std::string &DatasetName,
                                 const SweepResult &Result,
                                 const std::vector<unsigned> &Depths);

} // namespace benchutil
} // namespace antidote

#endif // ANTIDOTE_BENCH_BENCHUTIL_H
