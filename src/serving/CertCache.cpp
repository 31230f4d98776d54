//===- serving/CertCache.cpp - Fingerprint-keyed certificate cache ------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/CertCache.h"

#include <cassert>
#include <cstdio>

using namespace antidote;

uint64_t CertCache::entryBytes(const StoreKey &K) {
  // One entry owns: the map's key/slot pair (sizing the pair, not
  // Key + Slot separately, keeps alignment padding in the charge), the
  // query vector's heap allocation, the map node's bookkeeping (a next
  // link and the cached hash) plus its share of the bucket array, and
  // the LRU list node (two links + the key pointer payload). Approximate
  // by design — the point is a charge that can only overcount, never
  // undercount to just the certificate bytes, so a tiny `MaxBytes`
  // budget bounds the *real* footprint too.
  using Pair = std::pair<const StoreKey, Slot>;
  const uint64_t MapNode = 2 * sizeof(void *) + sizeof(size_t);
  const uint64_t ListNode = 3 * sizeof(void *);
  return sizeof(Pair) + K.Query.capacity() * sizeof(float) + MapNode +
         ListNode;
}

bool CertCache::lookup(const DatasetFingerprint &Data, const float *X,
                       unsigned NumFeatures, uint32_t PoisoningBudget,
                       const VerifierConfig &Config, Certificate &Out) {
  StoreKey K = makeStoreKey(Data, X, NumFeatures, PoisoningBudget, Config);
  std::lock_guard<std::mutex> Guard(Mutex);
  auto It = Entries.find(K);
  if (It != Entries.end()) {
    // Touch: move to the MRU end.
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    ++Stats.Hits;
    Out = It->second.Cert;
    return true;
  }
  // Exact miss: radius-range probe.
  if (const StoreKey *Found = Ranges.find(K, PoisoningBudget)) {
    auto EIt = Entries.find(*Found);
    assert(EIt != Entries.end() && "range index out of lockstep");
    Lru.splice(Lru.begin(), Lru, EIt->second.LruIt);
    ++Stats.RangeHits;
    Out = EIt->second.Cert;
    // The stored proof keeps its radius; only the answered budget
    // is rewritten (see the header's range invariant).
    Out.PoisoningBudget = PoisoningBudget;
    return true;
  }
  ++Stats.Misses;
  return false;
}

void CertCache::store(const DatasetFingerprint &Data, const float *X,
                      unsigned NumFeatures, uint32_t PoisoningBudget,
                      const VerifierConfig &Config, const Certificate &Cert) {
  StoreKey K = makeStoreKey(Data, X, NumFeatures, PoisoningBudget, Config);
  uint64_t Bytes = entryBytes(K);
  std::lock_guard<std::mutex> Guard(Mutex);
  if (MaxBytes && Bytes > MaxBytes) {
    ++Stats.Declined;
    return;
  }
  auto [It, Inserted] = Entries.try_emplace(std::move(K));
  if (!Inserted) {
    // A concurrent worker verified the same query first; certificates
    // for equal keys are interchangeable, so keep the incumbent and
    // just refresh its recency.
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return;
  }
  Lru.push_front(&It->first);
  It->second.Cert = Cert;
  It->second.Bytes = Bytes;
  It->second.LruIt = Lru.begin();
  Ranges.add(It->first, Cert.Kind, Cert.CertifiedRadius);
  Stats.LiveBytes += Bytes;
  ++Stats.LiveRecords;
  ++Stats.Stores;
  if (MaxBytes)
    while (Stats.LiveBytes > MaxBytes)
      evictOneLocked();
}

void CertCache::evictOneLocked() {
  const StoreKey *Victim = Lru.back();
  Lru.pop_back();
  auto It = Entries.find(*Victim);
  Ranges.remove(It->first, It->second.Cert.Kind,
                It->second.Cert.CertifiedRadius);
  Stats.LiveBytes -= It->second.Bytes;
  --Stats.LiveRecords;
  ++Stats.Evictions;
  Entries.erase(It);
}

StoreStats CertCache::stats() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Stats;
}

void CertCache::clear() {
  std::lock_guard<std::mutex> Guard(Mutex);
  Lru.clear();
  Entries.clear();
  Ranges.clear();
  Stats.LiveBytes = 0;
  Stats.LiveRecords = 0;
}
