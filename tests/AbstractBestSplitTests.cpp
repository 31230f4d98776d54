//===- tests/AbstractBestSplitTests.cpp - bestSplit# unit tests ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractBestSplit.h"
#include "abstract/AbstractDTrace.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

TEST(PredicateSetTest, NullOnlyAndBasics) {
  PredicateSet Null = PredicateSet::nullOnly();
  EXPECT_TRUE(Null.containsNull());
  EXPECT_EQ(Null.size(), 0u);
  EXPECT_FALSE(Null.empty());
  EXPECT_TRUE(PredicateSet().empty());
}

TEST(PredicateSetTest, CanonicalizeSortsAndDedupes) {
  PredicateSet Set;
  Set.add(SplitPredicate::threshold(1, 5.0));
  Set.add(SplitPredicate::threshold(0, 2.0));
  Set.add(SplitPredicate::threshold(1, 5.0));
  Set.canonicalize();
  ASSERT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.predicates()[0], SplitPredicate::threshold(0, 2.0));
  EXPECT_EQ(Set.predicates()[1], SplitPredicate::threshold(1, 5.0));
}

TEST(PredicateSetTest, JoinIsUnion) {
  PredicateSet A, B;
  A.add(SplitPredicate::threshold(0, 1.0));
  B.add(SplitPredicate::threshold(0, 2.0));
  B.addNull();
  PredicateSet J = PredicateSet::join(A, B);
  EXPECT_EQ(J.size(), 2u);
  EXPECT_TRUE(J.containsNull());
}

TEST(PredicateSetTest, ConcretizationMembership) {
  PredicateSet Set;
  Set.add(SplitPredicate::symbolic(0, 4.0, 7.0));
  Set.add(SplitPredicate::threshold(1, 0.5));
  EXPECT_TRUE(Set.concretizationContains(0, 5.5));
  EXPECT_TRUE(Set.concretizationContains(1, 0.5));
  EXPECT_FALSE(Set.concretizationContains(0, 7.0));
  EXPECT_FALSE(Set.concretizationContains(1, 0.6));
}

//===----------------------------------------------------------------------===//
// bestSplit# on the Figure 2 example
//===----------------------------------------------------------------------===//

TEST(AbstractBestSplitTest, ZeroBudgetKeepsOnlyTrueBest) {
  // With n = 0 every score interval is a point, so only the concrete
  // argmin (and exact ties) survive. Figure 2's best split is (10, 11).
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  AbstractDataset A = AbstractDataset::entire(Data, 0);
  PredicateSet Psi =
      *abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal);
  EXPECT_FALSE(Psi.containsNull());
  ASSERT_EQ(Psi.size(), 1u);
  EXPECT_EQ(Psi.predicates()[0], SplitPredicate::symbolic(0, 10.0, 11.0));
}

TEST(AbstractBestSplitTest, Figure2BestSurvivesTwoPoisonings) {
  // §2: "No matter what two elements you choose, the predicate x ≤ 10
  // remains one that gives a best split" — it must be in bestSplit#.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  AbstractDataset A = AbstractDataset::entire(Data, 2);
  PredicateSet Psi =
      *abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal);
  EXPECT_FALSE(Psi.containsNull());
  EXPECT_TRUE(Psi.concretizationContains(0, 10.5));
  // With poisoning, score intervals widen and more candidates overlap the
  // minimal interval than the n = 0 single winner.
  EXPECT_GE(Psi.size(), 1u);
}

TEST(AbstractBestSplitTest, EmitsNullWhenNoUniversalSplit) {
  // Two rows, one distinct boundary; budget 1 can empty either side, so
  // Φ∀ = ∅ and ⋄ must be included alongside the existential predicate.
  Dataset Data(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  Data.addRow({0.0f}, 0);
  Data.addRow({1.0f}, 1);
  SplitContext Ctx(Data);
  AbstractDataset A = AbstractDataset::entire(Data, 1);
  PredicateSet Psi =
      *abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal);
  EXPECT_TRUE(Psi.containsNull());
  EXPECT_EQ(Psi.size(), 1u);
}

TEST(AbstractBestSplitTest, NoCandidatesYieldsNullOnly) {
  Dataset Data(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  Data.addRow({3.0f}, 0);
  Data.addRow({3.0f}, 1);
  SplitContext Ctx(Data);
  AbstractDataset A = AbstractDataset::entire(Data, 1);
  PredicateSet Psi =
      *abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal);
  EXPECT_TRUE(Psi.containsNull());
  EXPECT_EQ(Psi.size(), 0u);
}

TEST(AbstractBestSplitTest, MorePoisoningNeverShrinksTheSet) {
  // Monotonicity in n (the doubling protocol relies on this): bestSplit#
  // at budget n is a superset of bestSplit# at n-1.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  PredicateSet Prev;
  for (uint32_t N = 0; N <= 6; ++N) {
    AbstractDataset A = AbstractDataset::entire(Data, N);
    PredicateSet Psi =
        *abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal);
    for (const SplitPredicate &Pred : Prev.predicates())
      EXPECT_TRUE(std::find(Psi.predicates().begin(),
                            Psi.predicates().end(),
                            Pred) != Psi.predicates().end())
          << Pred.str() << " dropped at n=" << N;
    if (Prev.containsNull()) {
      EXPECT_TRUE(Psi.containsNull());
    }
    Prev = Psi;
  }
}

//===----------------------------------------------------------------------===//
// Meter interruption: truncation is unrepresentable
//===----------------------------------------------------------------------===//

TEST(AbstractBestSplitTest, InterruptedBestSplitReturnsNullopt) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  AbstractDataset A = AbstractDataset::entire(Data, 2);

  CancellationToken Token;
  Token.cancel();
  ResourceLimits Limits;
  Limits.TimeoutSeconds = 0.0;
  ResourceMeter Meter(Limits, &Token);

  EXPECT_EQ(abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal,
                              GiniLiftingKind::ExactTerm, &Meter),
            std::nullopt);
}

TEST(AbstractBestSplitTest, InterruptedBestSplitIsNeverConsumedByTheLearner) {
  // A token cancelled before the run starts trips the first bestSplit#
  // poll; the learner must surface Cancelled with no terminals — the
  // nullopt result cannot silently become an (unsound) empty Ψ that
  // completes a verdict.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  CancellationToken Token;
  Token.cancel();
  for (AbstractDomainKind Domain :
       {AbstractDomainKind::Box, AbstractDomainKind::Disjuncts,
        AbstractDomainKind::DisjunctsCapped}) {
    AbstractLearnerConfig Config;
    Config.Depth = 3;
    Config.Domain = Domain;
    Config.DisjunctCap = 8;
    Config.Limits.TimeoutSeconds = 0.0;
    Config.Cancel = &Token;
    AbstractLearnerResult Result = runAbstractDTrace(
        Ctx, AbstractDataset::entire(Data, 4), &X, Config);
    EXPECT_EQ(Result.Status, LearnerStatus::Cancelled)
        << domainKindName(Domain);
    EXPECT_TRUE(Result.Terminals.empty()) << domainKindName(Domain);
    EXPECT_FALSE(Result.DominatingClass.has_value())
        << domainKindName(Domain);
  }
}

//===----------------------------------------------------------------------===//
// Lemma 4.10 / B.5 soundness property
//===----------------------------------------------------------------------===//

namespace {

class BestSplitSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(BestSplitSoundnessTest, ContainsEveryConcreteBestSplit) {
  Rng R(GetParam());
  RandomDatasetSpec Spec;
  Spec.MaxRows = 9;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 4;
  for (int Trial = 0; Trial < 25; ++Trial) {
    Spec.BooleanFeatures = R.bernoulli(0.3);
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    AbstractDataset A(Data, Rows, Budget);
    for (CprobTransformerKind Kind : {CprobTransformerKind::Optimal,
                                      CprobTransformerKind::NaiveInterval}) {
      PredicateSet Psi = *abstractBestSplit(Ctx, A, Kind);
      forEachPerturbedSubset(Rows, Budget, [&](const RowIndexList &Subset) {
        std::optional<SplitPredicate> Best = bestSplit(Ctx, Subset);
        if (!Best) {
          EXPECT_TRUE(Psi.containsNull())
              << "concrete bestSplit returned null but ⋄ not in Ψ";
          return;
        }
        EXPECT_TRUE(Psi.concretizationContains(Best->feature(),
                                               Best->thresholdValue()))
            << "concrete best " << Best->str() << " not covered";
      });
    }
  }
}

TEST_P(BestSplitSoundnessTest, CoversAllTiedConcreteWinners) {
  // Stronger check on n = 0: *every* score-minimizing concrete predicate
  // (not just the deterministic tie-break winner) must be covered, since
  // the paper's concrete semantics picks among ties nondeterministically.
  Rng R(GetParam() ^ 0x5555);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 8;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 3; // Small value range makes ties common.
  for (int Trial = 0; Trial < 25; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    AbstractDataset A(Data, Rows, 0);
    PredicateSet Psi =
        *abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal);
    // Find all concrete winners by enumeration.
    std::vector<uint32_t> Totals = classCounts(Data, Rows);
    double BestScore = 0.0;
    bool Any = false;
    std::vector<SplitPredicate> Winners;
    std::vector<uint32_t> NegCounts(Data.numClasses());
    forEachCandidateSplit(
        Ctx, Rows, PredicateMode::ConcreteMidpoint,
        [&](const SplitPredicate &Pred,
            const std::vector<uint32_t> &PosCounts, uint32_t PosTotal) {
          for (size_t C = 0; C < Totals.size(); ++C)
            NegCounts[C] = Totals[C] - PosCounts[C];
          double Score =
              splitScore(PosCounts, PosTotal, NegCounts,
                         static_cast<uint32_t>(Rows.size()) - PosTotal);
          if (!Any || Score < BestScore - 1e-12) {
            Winners.clear();
            BestScore = Score;
            Any = true;
          }
          if (Score <= BestScore + 1e-12)
            Winners.push_back(Pred);
        });
    for (const SplitPredicate &Winner : Winners)
      EXPECT_TRUE(Psi.concretizationContains(Winner.feature(),
                                             Winner.thresholdValue()))
          << "tied winner " << Winner.str() << " not covered";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BestSplitSoundnessTest,
                         ::testing::Values(10ull, 20ull, 30ull, 40ull));
