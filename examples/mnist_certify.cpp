//===- examples/mnist_certify.cpp - Certify MNIST-like digits -----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The Figure 3 scenario: pick handwritten-style digits ("1" vs "7"), learn
// a decision tree on an MNIST-1-7-like training set, and certify the
// largest poisoning budget for which each digit's classification provably
// cannot be changed. Renders each certified digit as ASCII art, like the
// paper's Figure 3 image.
//
//===----------------------------------------------------------------------===//

#include "antidote/Enumeration.h"
#include "antidote/Verifier.h"
#include "data/MnistLike.h"

#include <cstdio>

using namespace antidote;

int main() {
  // A reduced-scale MNIST-1-7-Binary workload (see docs/ARCHITECTURE.md,
  // "Deviations from the paper"); the certified budgets scale with the
  // training-set size.
  MnistLikeConfig Config;
  Config.TrainRows = 600;
  Config.TestRows = 40;
  Config.Variant = MnistVariant::Binary;
  TrainTestSplit Split = makeMnistLike17(Config);
  std::printf("=== Certifying MNIST-1-7-like digits against poisoning ===\n");
  std::printf("training set: %u binary images (28x28), classes: one/seven\n\n",
              Split.Train.numRows());

  Verifier V(Split.Train);
  VerifierConfig Query;
  Query.Depth = 2;
  Query.Domain = AbstractDomainKind::Disjuncts;
  Query.Limits.TimeoutSeconds = 10.0;

  for (unsigned Row : {0u, 1u}) {
    const float *Digit = Split.Test.row(Row);
    unsigned Predicted = V.predict(Digit, Query.Depth);
    std::printf("test digit #%u (true label: %s, predicted: %s)\n", Row,
                Split.Test.label(Row) == 0 ? "one" : "seven",
                Predicted == 0 ? "one" : "seven");
    std::printf("%s\n", asciiArtDigit(Digit).c_str());

    // Doubling search for the largest certified budget, as in §6.1.
    uint32_t Certified = 0;
    uint32_t N = 1;
    while (N <= Split.Train.numRows()) {
      Certificate Cert = V.verify(Digit, N, Query);
      if (!Cert.isRobust())
        break;
      Certified = N;
      N *= 2;
    }
    // Tighten with a binary search between the last success and failure.
    uint32_t Lo = Certified, Hi = N;
    while (Certified > 0 && Hi - Lo > 1) {
      uint32_t Mid = Lo + (Hi - Lo) / 2;
      if (V.verify(Digit, Mid, Query).isRobust())
        Lo = Mid;
      else
        Hi = Mid;
    }
    Certified = std::max(Certified, Lo);

    if (Certified == 0) {
      std::printf("  could not certify any poisoning budget "
                  "(overapproximation too coarse here)\n\n");
      continue;
    }
    double Percent = 100.0 * Certified / Split.Train.numRows();
    std::printf("  PROVEN: the prediction is invariant for every training "
                "set in Delta_%u(T)\n", Certified);
    std::printf("  i.e. an attacker contributing up to %u elements "
                "(%.1f%% of the data) is powerless.\n", Certified, Percent);
    std::printf("  (that is %llu%s possible training sets)\n\n",
                static_cast<unsigned long long>(perturbationSetCount(
                    Split.Train.numRows(), Certified)),
                perturbationSetCount(Split.Train.numRows(), Certified) ==
                        UINT64_MAX
                    ? "+ (saturated)"
                    : "");
  }
  return 0;
}
