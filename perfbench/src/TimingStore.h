//===- perfbench/src/TimingStore.h - Store-boundary spans --------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `CertificateStore` decorator that times every call into the real
/// store from outside it. `Verifier::verify` calls `lookup` first and, on
/// a miss, verifies and then calls `store` — all on one thread — so one
/// span per query yields three boundaries the program itself never
/// reports: store probe (lookup entry to exit), verification (lookup
/// exit to store entry) and write-through (store entry to exit).
///
/// Spans go into a preallocated buffer (a relaxed atomic cursor; a full
/// buffer counts drops instead of allocating) and stay in memory until
/// the benchmark matches them to client requests by `queryKey`.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_PERFBENCH_TIMINGSTORE_H
#define ANTIDOTE_PERFBENCH_TIMINGSTORE_H

#include "serving/CertificateStore.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench {

/// How a lookup was answered.
enum class LookupOutcome : uint8_t { Hit, RangeHit, Miss };

/// One query's passage through the store boundary.
struct StoreSpan {
  uint64_t Key = 0; ///< `queryKey` of the looked-up query.
  int64_t LookupInNs = 0, LookupOutNs = 0;
  int64_t StoreInNs = 0, StoreOutNs = 0; ///< 0 when `store` never ran.
  LookupOutcome Outcome = LookupOutcome::Miss;
  uint8_t Depth = 0;
  antidote::AbstractDomainKind Domain = antidote::AbstractDomainKind::Box;
  // Work counts of the certificate handed to `store` (misses only).
  uint32_t BestSplitCalls = 0;
  uint64_t PeakDisjuncts = 0;
  uint64_t PeakStateBytes = 0;
  uint64_t Terminals = 0;

  /// When the query left the store boundary: the store return on a
  /// miss, the lookup return on a hit.
  int64_t exitNs() const { return StoreOutNs ? StoreOutNs : LookupOutNs; }
};

class TimingStore final : public antidote::CertificateStore {
public:
  /// \p Inner may be null: every lookup then misses and every store is
  /// dropped (how the sweep, which runs without a store, is timed).
  TimingStore(antidote::CertificateStore *Inner, size_t Capacity);

  TimingStore(const TimingStore &) = delete;
  TimingStore &operator=(const TimingStore &) = delete;

  /// Spans are recorded only while enabled; disabled, every call is a
  /// plain forward.
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_release); }

  /// The spans recorded since the last `reset`. Call only while no
  /// query is in flight.
  std::vector<StoreSpan> spans() const;
  uint64_t dropped() const { return Dropped.load(); }
  void reset();

  bool lookup(const antidote::DatasetFingerprint &Data, const float *X,
              unsigned NumFeatures, uint32_t PoisoningBudget,
              const antidote::VerifierConfig &Config,
              antidote::Certificate &Out) override;
  void store(const antidote::DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const antidote::VerifierConfig &Config,
             const antidote::Certificate &Cert) override;
  /// The admission-control shed path's probe, forwarded untimed.
  bool probe(const antidote::DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const antidote::VerifierConfig &Config,
             antidote::Certificate &Out) override;

private:
  antidote::CertificateStore *Inner;
  std::vector<StoreSpan> Buffer;
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Dropped{0};
  std::atomic<bool> Enabled{false};
};

} // namespace perfbench

#endif // ANTIDOTE_PERFBENCH_TIMINGSTORE_H
