//===- data/Registry.cpp - Benchmark dataset registry -------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "data/Registry.h"

#include "data/MnistLike.h"
#include "support/Rng.h"

#include <cstdlib>
#include <cstring>
#include <stdexcept>

using namespace antidote;

BenchScale antidote::benchScaleFromEnv() {
  const char *Value = std::getenv("ANTIDOTE_BENCH_SCALE");
  if (Value && std::strcmp(Value, "full") == 0)
    return BenchScale::Full;
  return BenchScale::Scaled;
}

const std::vector<std::string> &antidote::benchmarkDatasetNames() {
  static const std::vector<std::string> Names = {
      "iris", "mammography", "wdbc", "mnist17-binary", "mnist17-real"};
  return Names;
}

/// Picks \p Count distinct test rows, deterministically but "randomly"
/// (mirroring the paper's fixed random 100-element MNIST subset).
static std::vector<uint32_t> pickVerifyRows(unsigned TestRows,
                                            unsigned Count) {
  Count = std::min(Count, TestRows);
  std::vector<uint32_t> All(TestRows);
  for (unsigned I = 0; I < TestRows; ++I)
    All[I] = I;
  Rng R(0x5e1ec7ULL);
  for (unsigned I = 0; I < Count; ++I) {
    unsigned J = I + static_cast<unsigned>(R.uniformInt(TestRows - I));
    std::swap(All[I], All[J]);
  }
  All.resize(Count);
  return All;
}

BenchmarkDataset antidote::loadBenchmarkDataset(const std::string &Name,
                                                BenchScale Scale) {
  bool Full = Scale == BenchScale::Full;
  BenchmarkDataset Result;
  Result.Name = Name;

  if (Name == "iris") {
    Result.Split = makeIrisLike();
    // The paper verifies every UCI test element.
    Result.VerifyRows =
        pickVerifyRows(Result.Split.Test.numRows(),
                       Result.Split.Test.numRows());
    return Result;
  }
  if (Name == "mammography") {
    Result.Split = makeMammographicLike();
    Result.VerifyRows = pickVerifyRows(Result.Split.Test.numRows(),
                                       Full ? Result.Split.Test.numRows()
                                            : 40);
    return Result;
  }
  if (Name == "wdbc") {
    Result.Split = makeWdbcLike();
    Result.VerifyRows = pickVerifyRows(Result.Split.Test.numRows(),
                                       Full ? Result.Split.Test.numRows()
                                            : 30);
    return Result;
  }
  if (Name == "mnist17-binary" || Name == "mnist17-real") {
    MnistLikeConfig Config;
    Config.Variant = Name == "mnist17-binary" ? MnistVariant::Binary
                                              : MnistVariant::Real;
    if (!Full) {
      Config.TrainRows = 1300;
      Config.TestRows = 220;
    }
    Result.Split = makeMnistLike17(Config);
    Result.VerifyRows = pickVerifyRows(Result.Split.Test.numRows(),
                                       Full ? 100 : 20);
    return Result;
  }
  throw std::invalid_argument("unknown benchmark dataset '" + Name + "'");
}
