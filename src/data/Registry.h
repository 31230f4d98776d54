//===- data/Registry.h - Benchmark dataset registry -------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named access to the five §6.1 benchmark datasets, at either the paper's
/// full scale or the time-scaled defaults the bench binaries use
/// (docs/ARCHITECTURE.md, "Deviations from the paper"). The registry also
/// fixes each dataset's *verification subset* — the test rows the
/// robustness experiments run on (the paper verifies every UCI test row but
/// a fixed random 100-element subset for MNIST).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_DATA_REGISTRY_H
#define ANTIDOTE_DATA_REGISTRY_H

#include "data/Synthetic.h"

#include <string>
#include <vector>

namespace antidote {

/// How large to make the benchmark workloads.
enum class BenchScale : uint8_t {
  Scaled, ///< Minutes-long suite (default for `bench/` binaries).
  Full,   ///< The paper's sizes (hours; ANTIDOTE_BENCH_SCALE=full).
};

/// Reads ANTIDOTE_BENCH_SCALE ("full" or "scaled"); defaults to Scaled.
BenchScale benchScaleFromEnv();

/// A ready-to-verify benchmark workload.
struct BenchmarkDataset {
  std::string Name;
  TrainTestSplit Split;

  /// Test rows used for robustness verification.
  std::vector<uint32_t> VerifyRows;
};

/// The five dataset names, in the paper's Table 1 order.
const std::vector<std::string> &benchmarkDatasetNames();

/// Builds the named dataset ("iris", "mammography", "wdbc",
/// "mnist17-binary", "mnist17-real") at the given scale. Throws
/// std::invalid_argument naming \p Name for any other name, in every
/// build type.
BenchmarkDataset loadBenchmarkDataset(const std::string &Name,
                                      BenchScale Scale);

} // namespace antidote

#endif // ANTIDOTE_DATA_REGISTRY_H
