//===- tests/FrontierGoldenTests.cpp - Certificate goldens for the frontier ---===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Pins every Certificate field except Seconds — verdict, prediction,
// dominating class, terminal count, PeakDisjuncts, PeakStateBytes and
// BestSplitCalls — for a few rows of eight configurations whose cost is
// the disjunctive frontier (restrict#, the dedupe, the capped adjacent
// joins, the resource caps):
//
//   mammography  depth 4  n=2  disjuncts
//   mammography  depth 3  n=8  disjuncts-capped, cap 16
//   mammography  depth 4  n=4  box
//   wdbc         depth 2  n=2  disjuncts
//   iris         depth 3  n=4  disjuncts, label flips
//   mammography  depth 4  n=2  disjuncts, MaxDisjuncts 5000 / 8000
//   mammography  depth 4  n=2  disjuncts, MaxStateBytes 2,400,000
//
// The values were recorded from the implementation that counted classes
// with a separate rescan after every restrict# and deduplicated the
// frontier with a plain std::sort + std::unique; the three capped configs
// from the one that materialized every child and deduplicated the whole
// depth after its merge. Every capped row ends ResourceLimit in the middle
// of depth 4's merge although no deduplicated frontier of theirs exceeds
// 4,033 disjuncts: the caps count every child the transfer steps emit,
// duplicates included, so the terminal and bestSplit# counts pin the
// exact abort point. PeakStateBytes sums the exact capacities of every
// live row and count vector plus sizeof(AbstractDataset), so any change
// to the element's layout, the vectors' capacities, the frontier's
// contents or the order the capped domain joins in moves it; the other
// fields pin what a client sees.
//
//===----------------------------------------------------------------------===//

#include "antidote/Verifier.h"
#include "data/Registry.h"

#include <gtest/gtest.h>

using namespace antidote;

namespace {

struct GridConfig {
  const char *Dataset;
  unsigned Depth;
  uint32_t Budget;
  AbstractDomainKind Domain;
  ThreatModelKind Threat;
  size_t DisjunctCap;
  size_t MaxDisjuncts = ResourceLimits().MaxDisjuncts;
  uint64_t MaxStateBytes = ResourceLimits().MaxStateBytes;
};

const GridConfig kGrid[] = {
    {"mammography", 4, 2, AbstractDomainKind::Disjuncts,
     ThreatModelKind::Removal, 64},
    {"mammography", 3, 8, AbstractDomainKind::DisjunctsCapped,
     ThreatModelKind::Removal, 16},
    {"mammography", 4, 4, AbstractDomainKind::Box, ThreatModelKind::Removal,
     64},
    {"wdbc", 2, 2, AbstractDomainKind::Disjuncts, ThreatModelKind::Removal,
     64},
    {"iris", 3, 4, AbstractDomainKind::Disjuncts, ThreatModelKind::LabelFlip,
     64},
    {"mammography", 4, 2, AbstractDomainKind::Disjuncts,
     ThreatModelKind::Removal, 64, /*MaxDisjuncts=*/5000},
    {"mammography", 4, 2, AbstractDomainKind::Disjuncts,
     ThreatModelKind::Removal, 64, /*MaxDisjuncts=*/8000},
    {"mammography", 4, 2, AbstractDomainKind::Disjuncts,
     ThreatModelKind::Removal, 64, ResourceLimits().MaxDisjuncts,
     /*MaxStateBytes=*/2400000},
};

struct GoldenCert {
  unsigned Config; ///< Index into kGrid.
  uint32_t Row;    ///< Row of the scaled dataset's test split.
  VerdictKind Kind;
  unsigned ConcretePrediction;
  bool HasDominating;
  unsigned DominatingClass;
  size_t NumTerminals;
  size_t PeakDisjuncts;
  uint64_t PeakStateBytes;
  unsigned BestSplitCalls;
};

const GoldenCert kGolden[] = {
    {0, 158, VerdictKind::Robust, 1, true, 1, 396, 396, 255696, 16},
    {0, 86, VerdictKind::Unknown, 0, false, 0, 69, 3793, 2271216, 220},
    {0, 99, VerdictKind::Unknown, 1, false, 0, 15, 154, 68228, 155},
    {0, 114, VerdictKind::Unknown, 0, false, 0, 68, 4033, 2441012, 224},
    {1, 158, VerdictKind::Unknown, 1, false, 0, 6, 10, 18664, 10},
    {1, 86, VerdictKind::Unknown, 0, false, 0, 11, 9, 30632, 11},
    {1, 99, VerdictKind::Unknown, 0, false, 0, 6, 9, 18712, 8},
    {1, 114, VerdictKind::Unknown, 0, false, 0, 9, 9, 28784, 11},
    {2, 158, VerdictKind::Unknown, 1, false, 0, 4, 1, 7448, 4},
    {2, 86, VerdictKind::Unknown, 0, false, 0, 4, 1, 6156, 4},
    {2, 99, VerdictKind::Unknown, 1, false, 0, 2, 1, 3768, 3},
    {2, 114, VerdictKind::Unknown, 0, false, 0, 4, 1, 6156, 4},
    {3, 84, VerdictKind::Robust, 0, true, 0, 578, 578, 688732, 24},
    {3, 107, VerdictKind::Robust, 1, true, 1, 47768, 47768, 22180268, 24},
    {4, 6, VerdictKind::Unknown, 2, false, 0, 460, 28365, 6555696, 1580},
    {4, 19, VerdictKind::Unknown, 1, false, 0, 3, 1376, 357124, 48},
    {4, 11, VerdictKind::Unknown, 1, false, 0, 4, 1453, 361068, 47},
    {5, 86, VerdictKind::ResourceLimit, 0, false, 0, 6, 249, 176584, 94},
    {5, 114, VerdictKind::ResourceLimit, 0, false, 0, 6, 249, 179248, 93},
    {6, 86, VerdictKind::ResourceLimit, 0, false, 0, 14, 249, 176584, 165},
    {6, 114, VerdictKind::ResourceLimit, 0, false, 0, 14, 249, 179248, 163},
    {7, 86, VerdictKind::ResourceLimit, 0, false, 0, 1, 249, 176584, 70},
    {7, 114, VerdictKind::ResourceLimit, 0, false, 0, 0, 249, 179248, 67},
};

} // namespace

TEST(FrontierGoldenTest, CertificatesMatchRecordedValues) {
  for (unsigned C = 0; C < std::size(kGrid); ++C) {
    const GridConfig &Grid = kGrid[C];
    BenchmarkDataset Bench =
        loadBenchmarkDataset(Grid.Dataset, BenchScale::Scaled);
    Verifier V(Bench.Split.Train);
    VerifierConfig Config;
    Config.Depth = Grid.Depth;
    Config.Domain = Grid.Domain;
    Config.Threat = Grid.Threat;
    Config.DisjunctCap = Grid.DisjunctCap;
    Config.Limits.TimeoutSeconds = 0.0;
    Config.Limits.MaxDisjuncts = Grid.MaxDisjuncts;
    Config.Limits.MaxStateBytes = Grid.MaxStateBytes;
    for (const GoldenCert &G : kGolden) {
      if (G.Config != C)
        continue;
      Certificate Cert =
          V.verify(Bench.Split.Test.row(G.Row), Grid.Budget, Config);
      std::string Label = std::string(Grid.Dataset) + " d" +
                          std::to_string(Grid.Depth) + " n" +
                          std::to_string(Grid.Budget) + " " +
                          domainKindName(Grid.Domain) + " " +
                          threatModelName(Grid.Threat) + " caps " +
                          std::to_string(Grid.MaxDisjuncts) + "/" +
                          std::to_string(Grid.MaxStateBytes) + ", row " +
                          std::to_string(G.Row);
      EXPECT_EQ(Cert.Kind, G.Kind) << Label;
      EXPECT_EQ(Cert.PoisoningBudget, Grid.Budget) << Label;
      EXPECT_EQ(Cert.CertifiedRadius, Grid.Budget) << Label;
      EXPECT_EQ(Cert.Depth, Grid.Depth) << Label;
      EXPECT_EQ(Cert.Domain, Grid.Domain) << Label;
      EXPECT_EQ(Cert.Threat, Grid.Threat) << Label;
      EXPECT_EQ(Cert.ConcretePrediction, G.ConcretePrediction) << Label;
      EXPECT_EQ(Cert.DominatingClass.has_value(), G.HasDominating) << Label;
      if (G.HasDominating && Cert.DominatingClass) {
        EXPECT_EQ(*Cert.DominatingClass, G.DominatingClass) << Label;
      }
      EXPECT_EQ(Cert.NumTerminals, G.NumTerminals) << Label;
      EXPECT_EQ(Cert.PeakDisjuncts, G.PeakDisjuncts) << Label;
      EXPECT_EQ(Cert.PeakStateBytes, G.PeakStateBytes) << Label;
      EXPECT_EQ(Cert.BestSplitCalls, G.BestSplitCalls) << Label;
    }
  }
}
