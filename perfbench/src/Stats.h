//===- perfbench/src/Stats.h - Percentiles and clocks ------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order statistics every benchmark number goes through, plus the
/// three clocks the load generator reads. Percentiles use linear
/// interpolation between closest ranks (Hyndman-Fan type 7, numpy's and
/// Python's `statistics.quantiles(method="inclusive")` default), so the
/// self-test can pin them on known inputs.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_PERFBENCH_STATS_H
#define ANTIDOTE_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <vector>

namespace perfbench {

/// The \p Q-quantile (0 <= Q <= 1) of an ascending \p Sorted sample; 0 for
/// an empty one.
inline double quantileSorted(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

/// Sorts a copy and takes the \p Q-quantile.
inline double quantile(std::vector<double> Values, double Q) {
  std::sort(Values.begin(), Values.end());
  return quantileSorted(Values, Q);
}

inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

inline double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

/// Samples of an ascending \p Sorted sample strictly above \p Value — how
/// many observations a reported tail percentile rests on.
inline size_t countAbove(const std::vector<double> &Sorted, double Value) {
  return static_cast<size_t>(
      Sorted.end() - std::upper_bound(Sorted.begin(), Sorted.end(), Value));
}

/// Monotonic wall clock in nanoseconds (CLOCK_MONOTONIC, the clock
/// `std::chrono::steady_clock` reads on Linux, so stamps taken here and
/// by the program share one time base).
inline int64_t nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

/// CPU seconds the whole process has used (user + system, all threads).
inline double processCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + T.tv_nsec * 1e-9;
}

/// CPU seconds the calling thread has used.
inline double threadCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + T.tv_nsec * 1e-9;
}

} // namespace perfbench

#endif // ANTIDOTE_PERFBENCH_STATS_H
