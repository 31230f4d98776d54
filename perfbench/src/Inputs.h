//===- perfbench/src/Inputs.h - Seeded workload inputs -----------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark feeds the program is generated here from the
/// `--seed` argument, so the same seed always yields the same queries,
/// the same arrival schedule and the same instance order. The program
/// under test only ever sees the generated inputs.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_PERFBENCH_INPUTS_H
#define ANTIDOTE_PERFBENCH_INPUTS_H

#include "antidote/Certificate.h"
#include "data/Dataset.h"
#include "support/Rng.h"

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// One serve_hot query: a warmed test row, asked either at the warm-up
/// budget (an exact-key hit) or at another budget the range rule answers
/// from the warm-up certificate.
struct HotQuery {
  uint32_t Row = 0;
  bool Range = false;
  uint32_t Offset = 0; ///< Distance from the warm budget, 1..MaxOffset.
};

/// Warm-up budget of every serve_hot certificate.
constexpr uint32_t HotWarmBudget = 16;
/// Range queries sit 1..HotMaxOffset away from `HotWarmBudget`.
constexpr uint32_t HotMaxOffset = 15;
/// Share of serve_hot queries that take the range rule.
constexpr double HotRangeShare = 0.3;

/// \p Count queries over \p Rows warmed rows, drawn from \p Seed.
std::vector<HotQuery> makeHotMix(uint64_t Seed, uint32_t Rows, size_t Count);

/// The budget a hot query is sent at, given its row's warm-up
/// certificate: a Robust proof at the warm budget answers every smaller
/// budget, an Unknown every larger one, and anything else only its own.
uint32_t hotBudget(const HotQuery &Query, const antidote::Certificate &Warm);

/// The answer the range rule must give: the warm-up certificate with
/// only `PoisoningBudget` rewritten to the queried budget.
antidote::Certificate expectedHotAnswer(const antidote::Certificate &Warm,
                                        uint32_t Budget);

/// An endless stream of distinct serve_cold queries: a seeded test row
/// with a few seeded binary pixels flipped, each pattern used once, so
/// every query misses every store tier and verifies.
class ColdQueryStream {
public:
  ColdQueryStream(const antidote::Dataset &Test, uint64_t Seed);

  /// Writes the next query into \p X (resized to the arity).
  void next(std::vector<float> &X);

  /// Pixels flipped per query.
  static constexpr unsigned Flips = 3;

private:
  const antidote::Dataset &Test;
  antidote::Rng R;
  std::unordered_set<uint64_t> Seen;
};

/// The open-loop due time of request \p Index, in nanoseconds after the
/// schedule starts: a fixed rate, one request every 1e9 / \p Rate ns.
int64_t openLoopDueNs(uint64_t Index, double Rate);

/// \p Rows in a seeded order — the sweep's instance order. Per-cell
/// counts do not depend on it; only the order of work does.
std::vector<uint32_t> shuffled(std::vector<uint32_t> Rows, uint64_t Seed);

/// Field-by-field certificate equality (`Seconds` compared bit for bit).
bool sameCertificate(const antidote::Certificate &A,
                     const antidote::Certificate &B);

/// 64-bit FNV-1a over \p Size bytes, chained from \p Hash.
uint64_t fnv1a(const void *Data, size_t Size,
               uint64_t Hash = 0xcbf29ce484222325ULL);

/// The identity the trace matches requests and store spans by: the
/// query's float bit patterns plus its budget.
uint64_t queryKey(const float *X, unsigned NumFeatures, uint32_t Budget);

} // namespace perfbench

#endif // ANTIDOTE_PERFBENCH_INPUTS_H
