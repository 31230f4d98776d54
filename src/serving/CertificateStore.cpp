//===- serving/CertificateStore.cpp - Unified store interface -----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/CertificateStore.h"

#include <cstdio>

using namespace antidote;

std::string StoreStats::summary() const {
  // Stable `key=value` text — the CI smokes grep exact prefixes of this
  // line, so field order and spellings are load-bearing. The optional
  // clauses key off what the tier maintains, not off zero-vs-nonzero
  // counts: only the disk tier sets `Disk`, so the shape of each tier's
  // line is deterministic.
  char Buf[512];
  int Len = std::snprintf(
      Buf, sizeof(Buf),
      "hits=%llu range_hits=%llu misses=%llu stored=%llu duplicates=%llu "
      "declined=%llu evicted=%llu records=%llu bytes=%llu",
      static_cast<unsigned long long>(Hits),
      static_cast<unsigned long long>(RangeHits),
      static_cast<unsigned long long>(Misses),
      static_cast<unsigned long long>(Stores),
      static_cast<unsigned long long>(DuplicatesDeclined),
      static_cast<unsigned long long>(Declined),
      static_cast<unsigned long long>(Evictions),
      static_cast<unsigned long long>(LiveRecords),
      static_cast<unsigned long long>(LiveBytes));
  std::string Out(Buf, Len < 0 ? 0 : static_cast<size_t>(Len));
  if (Disk) {
    Len = std::snprintf(
        Buf, sizeof(Buf),
        " segments=%llu corrupt=%llu stale=%llu retention_evicted=%llu",
        static_cast<unsigned long long>(Segments),
        static_cast<unsigned long long>(CorruptSkipped),
        static_cast<unsigned long long>(StaleSegments),
        static_cast<unsigned long long>(RetentionEvictedSegments));
    Out.append(Buf, Len < 0 ? 0 : static_cast<size_t>(Len));
  }
  return Out;
}
