//===- data/Fingerprint.cpp - Stable dataset content hashes -------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "data/Fingerprint.h"

#include "support/BitHash.h"

#include <cstdio>

using namespace antidote;

namespace {

/// Two independently seeded 64-bit mixing streams make up the 128-bit
/// fingerprint. Each stream is an FNV-1a walk followed by a murmur-style
/// finalizer per word; the streams differ in offset basis and prime so a
/// single-word perturbation decorrelates both halves. Float values enter
/// as storage bits via support/BitHash.h — the shared bit-pattern
/// identity policy (0.0 != -0.0, NaN-safe).
class Hash128 {
public:
  void word(uint64_t W) {
    Hi = step(Hi ^ W, 0x100000001b3ULL);
    Lo = step(Lo ^ (W * 0x9e3779b97f4a7c15ULL + 1), 0x00000100000001b3ULL);
  }

  /// Length-prefixes a section so adjacent variable-length fields (class
  /// names, rows) cannot alias each other's encodings.
  void section(uint64_t Tag, uint64_t Length) {
    word(0xa5a5a5a5a5a5a5a5ULL ^ Tag);
    word(Length);
  }

  DatasetFingerprint result() const {
    DatasetFingerprint FP;
    FP.Hi = splitmix64(Hi ^ Lo * 3);
    FP.Lo = splitmix64(Lo ^ Hi * 5);
    return FP;
  }

private:
  static uint64_t step(uint64_t H, uint64_t Prime) {
    H *= Prime;
    H ^= H >> 29;
    return H;
  }

  uint64_t Hi = 0xcbf29ce484222325ULL; // FNV-1a offset basis.
  uint64_t Lo = 0x84222325cbf29ce4ULL; // Byte-swapped basis for stream 2.
};

} // namespace

std::string DatasetFingerprint::hex() const {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

DatasetFingerprint antidote::fingerprintDataset(const Dataset &Data) {
  const DatasetSchema &Schema = Data.schema();
  Hash128 H;

  H.section(/*Tag=*/1, Schema.FeatureKinds.size());
  for (FeatureKind Kind : Schema.FeatureKinds)
    H.word(static_cast<uint64_t>(Kind));
  H.word(Schema.NumClasses);

  H.section(/*Tag=*/2, Schema.ClassNames.size());
  for (const std::string &Name : Schema.ClassNames) {
    H.word(Name.size());
    for (char C : Name)
      H.word(static_cast<unsigned char>(C));
  }

  // Row-major word order is the on-disk/cache-key contract: walk the column
  // slices in lockstep instead of materializing the row-major mirror.
  H.section(/*Tag=*/3, Data.numRows());
  const unsigned NumFeatures = Data.numFeatures();
  std::vector<const float *> Cols(NumFeatures);
  for (unsigned Feature = 0; Feature < NumFeatures; ++Feature)
    Cols[Feature] = Data.column(Feature);
  for (unsigned Row = 0; Row < Data.numRows(); ++Row) {
    for (unsigned Feature = 0; Feature < NumFeatures; ++Feature)
      H.word(floatBits(Cols[Feature][Row]));
    H.word(Data.label(Row));
  }
  return H.result();
}
