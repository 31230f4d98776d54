//===- tests/ConcreteLearnerTests.cpp - DTrace / tree learner tests -----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "concrete/DTrace.h"

#include "TestUtil.h"
#include "concrete/DecisionTree.h"
#include "data/Synthetic.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

//===----------------------------------------------------------------------===//
// Predicates
//===----------------------------------------------------------------------===//

TEST(PredicateTest, ConcreteEvaluation) {
  SplitPredicate P = SplitPredicate::threshold(0, 10.0);
  EXPECT_FALSE(P.isSymbolic());
  EXPECT_EQ(P.evaluate(9.0), ThreeValued::True);
  EXPECT_EQ(P.evaluate(10.0), ThreeValued::True);
  EXPECT_EQ(P.evaluate(10.5), ThreeValued::False);
  EXPECT_EQ(P.str(), "x0 <= 10");
}

TEST(PredicateTest, SymbolicThreeValuedEvaluation) {
  // ρ = x ≤ [4, 7): Definition B.2's three cases.
  SplitPredicate P = SplitPredicate::symbolic(1, 4.0, 7.0);
  EXPECT_TRUE(P.isSymbolic());
  EXPECT_EQ(P.evaluate(3.0), ThreeValued::True);
  EXPECT_EQ(P.evaluate(4.0), ThreeValued::True);
  EXPECT_EQ(P.evaluate(5.0), ThreeValued::Maybe);
  EXPECT_EQ(P.evaluate(6.999), ThreeValued::Maybe);
  EXPECT_EQ(P.evaluate(7.0), ThreeValued::False);
  EXPECT_EQ(P.str(), "x1 <= [4, 7)");
}

TEST(PredicateTest, ConcretizationMembership) {
  SplitPredicate Sym = SplitPredicate::symbolic(0, 4.0, 7.0);
  EXPECT_TRUE(Sym.concretizationContains(0, 4.0));
  EXPECT_TRUE(Sym.concretizationContains(0, 5.5));
  EXPECT_FALSE(Sym.concretizationContains(0, 7.0)); // Half-open.
  EXPECT_FALSE(Sym.concretizationContains(1, 5.0)); // Wrong feature.
  SplitPredicate Conc = SplitPredicate::threshold(0, 4.0);
  EXPECT_TRUE(Conc.concretizationContains(0, 4.0));
  EXPECT_FALSE(Conc.concretizationContains(0, 4.5));
}

TEST(PredicateTest, OrderingIsDeterministic) {
  SplitPredicate A = SplitPredicate::threshold(0, 1.0);
  SplitPredicate B = SplitPredicate::threshold(0, 2.0);
  SplitPredicate C = SplitPredicate::threshold(1, 0.0);
  EXPECT_LT(A, B);
  EXPECT_LT(B, C);
  EXPECT_EQ(A, SplitPredicate::threshold(0, 1.0));
}

//===----------------------------------------------------------------------===//
// Gini operators (paper Figure 5 and Examples 3.4/3.5)
//===----------------------------------------------------------------------===//

TEST(GiniTest, ClassProbabilities) {
  std::vector<double> Probs = classProbabilities({7, 2});
  EXPECT_DOUBLE_EQ(Probs[0], 7.0 / 9.0);
  EXPECT_DOUBLE_EQ(Probs[1], 2.0 / 9.0);
}

TEST(GiniTest, ImpurityOfPureSetIsZero) {
  EXPECT_DOUBLE_EQ(giniImpurityFromCounts({0, 4}, 4), 0.0);
  EXPECT_DOUBLE_EQ(giniImpurityFromCounts({4, 0}, 4), 0.0);
}

TEST(GiniTest, Example34Impurity) {
  // ent(T↓φ) ≈ 0.35 for the 7-white/2-black left side of Figure 2.
  double Ent = giniImpurityFromCounts({7, 2}, 9);
  EXPECT_NEAR(Ent, 0.3457, 1e-4);
}

TEST(GiniTest, Example34Score) {
  // score(T, x ≤ 10) ≈ 3.1: 9·ent(7w,2b) + 4·ent(0w,4b).
  double Score = splitScore({7, 2}, 9, {0, 4}, 4);
  EXPECT_NEAR(Score, 9.0 * 0.345679, 1e-4);
  EXPECT_NEAR(Score, 3.1111, 1e-3);
}

TEST(GiniTest, PurityAndArgmax) {
  EXPECT_TRUE(isPure({5, 0, 0}));
  EXPECT_TRUE(isPure({0, 0, 3}));
  EXPECT_FALSE(isPure({1, 0, 3}));
  EXPECT_EQ(argmaxClass({1, 5, 3}), 1u);
  EXPECT_EQ(argmaxClass({2, 2}), 0u); // Deterministic lowest-index tie.
}

//===----------------------------------------------------------------------===//
// Candidate enumeration and bestSplit
//===----------------------------------------------------------------------===//

TEST(BestSplitTest, Figure2PicksTheTenElevenBoundary) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  std::optional<SplitPredicate> Best = bestSplit(Ctx, allRows(Data));
  ASSERT_TRUE(Best.has_value());
  // The paper's best predicate x ≤ 10 corresponds to the midpoint between
  // the adjacent values 10 and 11.
  EXPECT_EQ(Best->feature(), 0u);
  EXPECT_DOUBLE_EQ(Best->thresholdValue(), 10.5);
}

TEST(BestSplitTest, CandidateCountMatchesExample51) {
  // Example 5.1: Tbw has 12 adjacent pairs of distinct values
  // {0,1,2,3,4,7,...,14}, giving 12 candidate thresholds.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  unsigned Count = 0;
  forEachCandidateSplit(Ctx, allRows(Data), PredicateMode::ConcreteMidpoint,
                        [&](const SplitPredicate &,
                            const std::vector<uint32_t> &, uint32_t) {
                          ++Count;
                        });
  EXPECT_EQ(Count, 12u);
}

TEST(BestSplitTest, CandidatePosCountsArePrefixes) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  RowIndexList Rows = allRows(Data);
  forEachCandidateSplit(
      Ctx, Rows, PredicateMode::ConcreteMidpoint,
      [&](const SplitPredicate &Pred, const std::vector<uint32_t> &PosCounts,
          uint32_t PosTotal) {
        // Recompute by brute force.
        std::vector<uint32_t> Expected(Data.numClasses(), 0);
        uint32_t ExpectedTotal = 0;
        for (uint32_t Row : Rows)
          if (Pred.evaluate(Data.value(Row, 0)) == ThreeValued::True) {
            ++Expected[Data.label(Row)];
            ++ExpectedTotal;
          }
        EXPECT_EQ(PosCounts, Expected);
        EXPECT_EQ(PosTotal, ExpectedTotal);
      });
}

TEST(BestSplitTest, SymbolicModeEmitsAdjacentPairs) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  std::vector<SplitPredicate> Preds;
  forEachCandidateSplit(Ctx, allRows(Data), PredicateMode::SymbolicInterval,
                        [&](const SplitPredicate &Pred,
                            const std::vector<uint32_t> &, uint32_t) {
                          Preds.push_back(Pred);
                        });
  ASSERT_EQ(Preds.size(), 12u);
  EXPECT_EQ(Preds.front(), SplitPredicate::symbolic(0, 0.0, 1.0));
  // The gap pair (4, 7) appears as one symbolic predicate.
  EXPECT_NE(std::find(Preds.begin(), Preds.end(),
                      SplitPredicate::symbolic(0, 4.0, 7.0)),
            Preds.end());
  EXPECT_EQ(Preds.back(), SplitPredicate::symbolic(0, 13.0, 14.0));
}

TEST(BestSplitTest, BooleanFeaturesGetSinglePredicate) {
  Dataset Data(DatasetSchema::uniform(2, FeatureKind::Boolean, 2));
  Data.addRow({0.0f, 1.0f}, 0);
  Data.addRow({1.0f, 1.0f}, 1);
  Data.addRow({0.0f, 1.0f}, 0);
  SplitContext Ctx(Data);
  std::vector<SplitPredicate> Preds;
  forEachCandidateSplit(Ctx, allRows(Data), PredicateMode::SymbolicInterval,
                        [&](const SplitPredicate &Pred,
                            const std::vector<uint32_t> &, uint32_t) {
                          Preds.push_back(Pred);
                        });
  // Feature 1 is constant (trivial split) and must not appear.
  ASSERT_EQ(Preds.size(), 1u);
  EXPECT_EQ(Preds[0], SplitPredicate::threshold(0, 0.5));
}

TEST(BestSplitTest, NoCandidatesOnConstantData) {
  Dataset Data(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  Data.addRow({3.0f}, 0);
  Data.addRow({3.0f}, 1);
  SplitContext Ctx(Data);
  EXPECT_FALSE(bestSplit(Ctx, allRows(Data)).has_value());
}

TEST(BestSplitTest, FilterRowsPartitions) {
  Dataset Data = figure2Dataset();
  RowIndexList Rows = allRows(Data);
  SplitPredicate Pred = SplitPredicate::threshold(0, 10.5);
  RowIndexList Pos = filterRows(Data, Rows, Pred, true);
  RowIndexList Neg = filterRows(Data, Rows, Pred, false);
  EXPECT_EQ(Pos.size(), 9u);
  EXPECT_EQ(Neg.size(), 4u);
  EXPECT_EQ(rowSetUnion(Pos, Neg), Rows);
  EXPECT_TRUE(rowSetIntersection(Pos, Neg).empty());
}

//===----------------------------------------------------------------------===//
// DTrace (paper Figure 4, Examples 3.4/3.5)
//===----------------------------------------------------------------------===//

TEST(DTraceTest, Example35ClassifiesEighteenAsBlack) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 18.0f;
  TraceResult Result = runDTrace(Ctx, allRows(Data), &X, 1);
  EXPECT_EQ(Result.PredictedClass, 1u); // black
  EXPECT_DOUBLE_EQ(Result.ClassProbs[1], 1.0);
  ASSERT_EQ(Result.Trace.size(), 1u);
  EXPECT_FALSE(Result.Trace[0].Satisfied); // 18 > 10.5
  EXPECT_EQ(Result.FinalRows.size(), 4u);
}

TEST(DTraceTest, ClassifiesFiveAsWhite) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  TraceResult Result = runDTrace(Ctx, allRows(Data), &X, 1);
  EXPECT_EQ(Result.PredictedClass, 0u); // white, probability 7/9
  EXPECT_NEAR(Result.ClassProbs[0], 7.0 / 9.0, 1e-12);
}

TEST(DTraceTest, StopsAtPureLeaf) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 18.0f;
  // Depth 3, but the right side is pure black after one split.
  TraceResult Result = runDTrace(Ctx, allRows(Data), &X, 3);
  EXPECT_EQ(Result.Stop, TraceStopReason::PureLeaf);
  EXPECT_EQ(Result.Trace.size(), 1u);
}

TEST(DTraceTest, StopsWhenNoSplitExists) {
  Dataset Data(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  Data.addRow({3.0f}, 0);
  Data.addRow({3.0f}, 1);
  SplitContext Ctx(Data);
  float X = 3.0f;
  TraceResult Result = runDTrace(Ctx, allRows(Data), &X, 2);
  EXPECT_EQ(Result.Stop, TraceStopReason::NoSplit);
  EXPECT_TRUE(Result.Trace.empty());
  EXPECT_EQ(Result.PredictedClass, 0u); // Tie broken to lowest index.
}

TEST(DTraceTest, DepthZeroPredictsMajority) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  TraceResult Result = runDTrace(Ctx, allRows(Data), &X, 0);
  EXPECT_EQ(Result.PredictedClass, 0u); // 7 white vs 6 black.
  EXPECT_EQ(Result.Stop, TraceStopReason::DepthExhausted);
}

//===----------------------------------------------------------------------===//
// Full tree learner and DTrace equivalence
//===----------------------------------------------------------------------===//

TEST(DecisionTreeTest, Figure2TreeShape) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  DecisionTree Tree = DecisionTree::learn(Ctx, allRows(Data), 1);
  EXPECT_EQ(Tree.numNodes(), 3u);
  EXPECT_EQ(Tree.numTraces(), 2u);
  float Left = 5.0f, Right = 18.0f;
  EXPECT_EQ(Tree.classify(&Left), 0u);
  EXPECT_EQ(Tree.classify(&Right), 1u);
  std::vector<double> Probs = Tree.classProbabilitiesAt(&Left);
  EXPECT_NEAR(Probs[0], 7.0 / 9.0, 1e-12);
}

TEST(DecisionTreeTest, DumpMentionsRootPredicate) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  DecisionTree Tree = DecisionTree::learn(Ctx, allRows(Data), 2);
  std::string Dump = Tree.dump(Data);
  EXPECT_NE(Dump.find("x0 <= 10.5"), std::string::npos);
  EXPECT_NE(Dump.find("leaf"), std::string::npos);
}

namespace {

/// Property: the input-directed DTrace and the materialized tree are the
/// same learner (paper §3.3: collecting DTrace over all x yields the tree).
class LearnerEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(LearnerEquivalenceTest, DTraceAgreesWithFullTree) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 30; ++Trial) {
    RandomDatasetSpec Spec;
    Spec.MaxRows = 16;
    Spec.NumClasses = 2 + static_cast<unsigned>(R.uniformInt(2));
    Spec.BooleanFeatures = R.bernoulli(0.3);
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    for (unsigned Depth = 1; Depth <= 3; ++Depth) {
      DecisionTree Tree = DecisionTree::learn(Ctx, allRows(Data), Depth);
      for (int Query = 0; Query < 10; ++Query) {
        std::vector<float> X = makeRandomQuery(R, Spec);
        TraceResult Trace = runDTrace(Ctx, allRows(Data), X.data(), Depth);
        EXPECT_EQ(Trace.PredictedClass, Tree.classify(X.data()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerEquivalenceTest,
                         ::testing::Values(100ull, 200ull, 300ull));

TEST(DecisionTreeTest, AccuracyOnSeparableData) {
  // Two well-separated Gaussian-free clusters: depth 1 suffices.
  Dataset Train(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  Dataset Test(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  for (int I = 0; I < 20; ++I) {
    Train.addRow({static_cast<float>(I)}, I < 10 ? 0u : 1u);
    Test.addRow({static_cast<float>(I) + 0.25f}, I < 10 ? 0u : 1u);
  }
  SplitContext Ctx(Train);
  DecisionTree Tree = DecisionTree::learn(Ctx, allRows(Train), 1);
  EXPECT_DOUBLE_EQ(testAccuracy(Tree, Test), 1.0);
}

TEST(DecisionTreeTest, SyntheticDatasetsAreLearnable) {
  // The Table 1 reproduction depends on the synthetic generators producing
  // learnable class structure; sanity-check depth-2 accuracies here so a
  // generator regression fails fast (BenchTable1 prints the exact values).
  {
    TrainTestSplit Iris = makeIrisLike();
    SplitContext Ctx(Iris.Train);
    DecisionTree Tree = DecisionTree::learn(Ctx, allRows(Iris.Train), 2);
    EXPECT_GE(testAccuracy(Tree, Iris.Test), 0.85);
  }
  {
    TrainTestSplit Mammo = makeMammographicLike();
    SplitContext Ctx(Mammo.Train);
    DecisionTree Tree = DecisionTree::learn(Ctx, allRows(Mammo.Train), 2);
    EXPECT_GE(testAccuracy(Tree, Mammo.Test), 0.75);
  }
  {
    TrainTestSplit Wdbc = makeWdbcLike();
    SplitContext Ctx(Wdbc.Train);
    DecisionTree Tree = DecisionTree::learn(Ctx, allRows(Wdbc.Train), 2);
    EXPECT_GE(testAccuracy(Tree, Wdbc.Test), 0.85);
  }
}
