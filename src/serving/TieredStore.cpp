//===- serving/TieredStore.cpp - RAM-over-disk certificate store --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/TieredStore.h"

using namespace antidote;

bool TieredStore::lookup(const DatasetFingerprint &Data, const float *X,
                         unsigned NumFeatures, uint32_t PoisoningBudget,
                         const VerifierConfig &Config, Certificate &Out) {
  if (Ram && Ram->lookup(Data, X, NumFeatures, PoisoningBudget, Config,
                         Out))
    return true;
  if (Disk && Disk->lookup(Data, X, NumFeatures, PoisoningBudget, Config,
                           Out)) {
    // Promote: the next repeat should cost a hash probe, not a disk
    // read. The RAM tier may decline (byte budget) — then every repeat
    // keeps hitting disk, which is still correct.
    if (Ram)
      Ram->store(Data, X, NumFeatures, PoisoningBudget, Config, Out);
    return true;
  }
  return false;
}

void TieredStore::store(const DatasetFingerprint &Data, const float *X,
                        unsigned NumFeatures, uint32_t PoisoningBudget,
                        const VerifierConfig &Config,
                        const Certificate &Cert) {
  // Write-through: RAM for the next repeat in this process, disk for
  // every process after it. `Verifier` only offers deterministic
  // verdicts here, and the disk tier re-checks defensively.
  if (Ram)
    Ram->store(Data, X, NumFeatures, PoisoningBudget, Config, Cert);
  if (Disk)
    Disk->store(Data, X, NumFeatures, PoisoningBudget, Config, Cert);
}

bool TieredStore::probe(const DatasetFingerprint &Data, const float *X,
                        unsigned NumFeatures, uint32_t PoisoningBudget,
                        const VerifierConfig &Config, Certificate &Out) {
  // No promotion: a probe answers the admission-control question
  // without disturbing residency.
  if (Ram &&
      Ram->probe(Data, X, NumFeatures, PoisoningBudget, Config, Out))
    return true;
  return Disk &&
         Disk->probe(Data, X, NumFeatures, PoisoningBudget, Config, Out);
}
