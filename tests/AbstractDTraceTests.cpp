//===- tests/AbstractDTraceTests.cpp - DTrace# end-to-end soundness -----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "TestUtil.h"
#include "antidote/Enumeration.h"
#include "concrete/DTrace.h"

#include <gtest/gtest.h>
#include <algorithm>

using namespace antidote;
using namespace antidote::testutil;

namespace {

AbstractLearnerConfig baseConfig(AbstractDomainKind Domain, unsigned Depth) {
  AbstractLearnerConfig Config;
  Config.Domain = Domain;
  Config.Depth = Depth;
  Config.StopOnRefutation = false; // Tests inspect complete terminal sets.
  return Config;
}

} // namespace

TEST(AbstractDTraceTest, Figure2DepthOneDisjunctsProveWhite) {
  // The §2 running example at one poisoned element: every surviving
  // disjunct keeps white dominating, so classification of 5 is proven
  // invariant.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 1);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, baseConfig(AbstractDomainKind::Disjuncts, 1));
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_FALSE(Result.Refuted);
  ASSERT_TRUE(Result.DominatingClass.has_value());
  EXPECT_EQ(*Result.DominatingClass, 0u); // white
  EXPECT_GE(Result.Terminals.size(), 2u); // Several tied predicates.
}

TEST(AbstractDTraceTest, Figure2BoxJoinLosesWhatDisjunctsProve) {
  // §5.2's motivation: at n = 1 the box domain joins quite dissimilar
  // training-set fragments across the tied predicates and can no longer
  // dominate, while the disjunctive domain proves the instance (previous
  // test). This is the Example 5.3 imprecision in action.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 1);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, baseConfig(AbstractDomainKind::Box, 1));
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_EQ(Result.Terminals.size(), 1u); // Box keeps a single state.
  EXPECT_FALSE(Result.DominatingClass.has_value());
}

TEST(AbstractDTraceTest, Figure2OverviewProbabilityInterval) {
  // §2: after splitting on x ≤ 10 with two poisonings, the white
  // probability interval on the left branch is [0.71, 1] (i.e. [5/7, 1]).
  // In the disjunctive run, that branch is the terminal whose rows are
  // exactly T↓x≤10 with budget 2.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 2);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, baseConfig(AbstractDomainKind::Disjuncts, 1));
  RowIndexList LeftRows = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  bool FoundLeftBranch = false;
  for (const AbstractDataset &Terminal : Result.Terminals) {
    if (Terminal.rows() != LeftRows || Terminal.budget() != 2)
      continue;
    FoundLeftBranch = true;
    std::vector<Interval> Probs = abstractClassProbabilities(
        Terminal, CprobTransformerKind::Optimal);
    EXPECT_NEAR(Probs[0].lb(), 5.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(Probs[0].ub(), 1.0);
  }
  EXPECT_TRUE(FoundLeftBranch);
}

TEST(AbstractDTraceTest, RefutationWhenBudgetTooLarge) {
  // With enough poisoning the left leaf can be flipped; domination fails.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 7);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, baseConfig(AbstractDomainKind::Box, 1));
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_FALSE(Result.DominatingClass.has_value());
}

TEST(AbstractDTraceTest, EarlyStopOnRefutationProducesSameVerdict) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  for (uint32_t Budget : {0u, 1u, 2u, 4u, 7u, 13u}) {
    AbstractDataset Initial = AbstractDataset::entire(Data, Budget);
    AbstractLearnerConfig Full = baseConfig(AbstractDomainKind::Box, 2);
    AbstractLearnerConfig Early = Full;
    Early.StopOnRefutation = true;
    AbstractLearnerResult A = runAbstractDTrace(Ctx, Initial, &X, Full);
    AbstractLearnerResult B = runAbstractDTrace(Ctx, Initial, &X, Early);
    EXPECT_EQ(A.DominatingClass.has_value(), B.DominatingClass.has_value());
    if (A.DominatingClass && B.DominatingClass) {
      EXPECT_EQ(*A.DominatingClass, *B.DominatingClass);
    }
  }
}

TEST(AbstractDTraceTest, TimeoutIsReported) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractLearnerConfig Config = baseConfig(AbstractDomainKind::Disjuncts, 4);
  Config.Limits.TimeoutSeconds = 1e-9; // Expire immediately.
  AbstractDataset Initial = AbstractDataset::entire(Data, 4);
  AbstractLearnerResult Result = runAbstractDTrace(Ctx, Initial, &X, Config);
  EXPECT_EQ(Result.Status, LearnerStatus::Timeout);
  EXPECT_FALSE(Result.DominatingClass.has_value());
}

TEST(AbstractDTraceTest, DisjunctCapIsHonored) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractLearnerConfig Config =
      baseConfig(AbstractDomainKind::DisjunctsCapped, 3);
  Config.DisjunctCap = 2;
  AbstractDataset Initial = AbstractDataset::entire(Data, 4);
  AbstractLearnerResult Result = runAbstractDTrace(Ctx, Initial, &X, Config);
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_LE(Result.PeakDisjuncts, 2u);
}

TEST(AbstractDTraceTest, ResourceLimitIsReported) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractLearnerConfig Config = baseConfig(AbstractDomainKind::Disjuncts, 4);
  Config.Limits.MaxDisjuncts = 1; // Any branching trips the cap.
  AbstractDataset Initial = AbstractDataset::entire(Data, 6);
  AbstractLearnerResult Result = runAbstractDTrace(Ctx, Initial, &X, Config);
  EXPECT_EQ(Result.Status, LearnerStatus::ResourceLimit);
}

TEST(AbstractDTraceTest, StatsArePopulated) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 2);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, baseConfig(AbstractDomainKind::Disjuncts, 2));
  EXPECT_GT(Result.BestSplitCalls, 0u);
  EXPECT_GT(Result.PeakStateBytes, 0u);
  EXPECT_GE(Result.PeakDisjuncts, 1u);
  EXPECT_GE(Result.Seconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Theorem 4.11: terminal coverage of every concrete final state
//===----------------------------------------------------------------------===//

namespace {

struct SoundnessCase {
  uint64_t Seed;
  AbstractDomainKind Domain;
};

class DTraceSoundnessTest
    : public ::testing::TestWithParam<SoundnessCase> {};

std::string soundnessCaseName(
    const ::testing::TestParamInfo<SoundnessCase> &Info) {
  std::string Name = domainKindName(Info.param.Domain);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name + "_seed" + std::to_string(Info.param.Seed);
}

} // namespace

TEST_P(DTraceSoundnessTest, TerminalsCoverEveryConcreteRun) {
  // For every T' ∈ ∆n(T), the concrete DTrace(T', x) final training set
  // must lie in γ of some terminal abstract state (Theorem 4.11 lifted to
  // our multi-terminal formulation).
  Rng R(GetParam().Seed);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 8;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 4;
  for (int Trial = 0; Trial < 20; ++Trial) {
    Spec.BooleanFeatures = R.bernoulli(0.25);
    Spec.NumClasses = 2 + static_cast<unsigned>(R.uniformInt(2));
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(3));
    std::vector<float> X = makeRandomQuery(R, Spec);

    AbstractLearnerResult Abstract = runAbstractDTrace(
        Ctx, AbstractDataset(Data, Rows, Budget), X.data(),
        baseConfig(GetParam().Domain, Depth));
    ASSERT_EQ(Abstract.Status, LearnerStatus::Completed);

    forEachPerturbedSubset(Rows, Budget, [&](const RowIndexList &Subset) {
      TraceResult Concrete = runDTrace(Ctx, Subset, X.data(), Depth);
      bool Covered = false;
      for (const AbstractDataset &Terminal : Abstract.Terminals)
        if (Terminal.concretizationContains(Concrete.FinalRows)) {
          Covered = true;
          break;
        }
      EXPECT_TRUE(Covered)
          << "concrete final state not covered by any terminal (depth="
          << Depth << ", n=" << Budget << ")";
    });
  }
}

TEST_P(DTraceSoundnessTest, DominationImpliesEnumerationRobust) {
  // The headline soundness property: a dominating class means *no*
  // removal of ≤ n rows can change the prediction; the enumeration oracle
  // must agree.
  Rng R(GetParam().Seed ^ 0xabcdef);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 9;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 4;
  unsigned Proven = 0;
  for (int Trial = 0; Trial < 30; ++Trial) {
    Spec.BooleanFeatures = R.bernoulli(0.25);
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(2));
    std::vector<float> X = makeRandomQuery(R, Spec);

    AbstractLearnerResult Abstract = runAbstractDTrace(
        Ctx, AbstractDataset(Data, Rows, Budget), X.data(),
        baseConfig(GetParam().Domain, Depth));
    if (Abstract.Status != LearnerStatus::Completed ||
        !Abstract.DominatingClass)
      continue;
    ++Proven;
    EnumerationResult Oracle =
        verifyByEnumeration(Ctx, Rows, X.data(), Budget, Depth);
    EXPECT_TRUE(Oracle.Robust)
        << "Antidote proved robustness but enumeration found a "
           "counterexample (depth="
        << Depth << ", n=" << Budget << ")";
    EXPECT_EQ(*Abstract.DominatingClass, Oracle.OriginalPrediction);
  }
  // The test would be vacuous if nothing was ever proven.
  EXPECT_GT(Proven, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Domains, DTraceSoundnessTest,
    ::testing::Values(
        SoundnessCase{501, AbstractDomainKind::Box},
        SoundnessCase{502, AbstractDomainKind::Box},
        SoundnessCase{601, AbstractDomainKind::Disjuncts},
        SoundnessCase{602, AbstractDomainKind::Disjuncts},
        SoundnessCase{701, AbstractDomainKind::DisjunctsCapped}),
    soundnessCaseName);

//===----------------------------------------------------------------------===//
// Relative precision of the domains
//===----------------------------------------------------------------------===//

TEST(DomainPrecisionTest, DisjunctsAtLeastAsPreciseAsBox) {
  // §5.2: "by construction, the disjunctive abstract domain is at least as
  // precise as our standard abstract domain."
  Rng R(888);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 10;
  Spec.NumFeatures = 2;
  unsigned BoxProven = 0, DisjProven = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(2));
    std::vector<float> X = makeRandomQuery(R, Spec);
    AbstractDataset Initial = AbstractDataset::entire(Data, Budget);
    AbstractLearnerResult Box = runAbstractDTrace(
        Ctx, Initial, X.data(), baseConfig(AbstractDomainKind::Box, Depth));
    AbstractLearnerResult Disj = runAbstractDTrace(
        Ctx, Initial, X.data(),
        baseConfig(AbstractDomainKind::Disjuncts, Depth));
    BoxProven += Box.DominatingClass.has_value();
    DisjProven += Disj.DominatingClass.has_value();
    if (Box.DominatingClass) {
      EXPECT_TRUE(Disj.DominatingClass.has_value())
          << "box proved an instance disjuncts could not";
      if (Disj.DominatingClass) {
        EXPECT_EQ(*Box.DominatingClass, *Disj.DominatingClass);
      }
    }
  }
  EXPECT_GE(DisjProven, BoxProven);
}

TEST(DomainPrecisionTest, VerifiedRobustnessIsMonotoneInBudget) {
  // If the learner proves robustness at budget n, it must also prove it at
  // every smaller budget, with the same class (the doubling protocol of
  // §6.1 and the store's radius-range rule both rely on this). Covers
  // every domain, the capped one at several caps (its overflow joins
  // depend on n through the frontier), and label flips, whose budgets
  // also nest.
  struct Cell {
    AbstractDomainKind Domain;
    ThreatModelKind Threat;
    size_t Cap;
  };
  const Cell Cells[] = {
      {AbstractDomainKind::Box, ThreatModelKind::Removal, 0},
      {AbstractDomainKind::Disjuncts, ThreatModelKind::Removal, 0},
      {AbstractDomainKind::DisjunctsCapped, ThreatModelKind::Removal, 2},
      {AbstractDomainKind::DisjunctsCapped, ThreatModelKind::Removal, 4},
      {AbstractDomainKind::DisjunctsCapped, ThreatModelKind::Removal, 8},
      {AbstractDomainKind::Disjuncts, ThreatModelKind::LabelFlip, 0},
  };
  Rng R(999);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 30;
  Spec.NumClasses = 3;
  for (int Trial = 0; Trial < 60; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    if (Trial % 2) {
      // Uniform random labels are almost never provable past n = 0, so
      // half the trials label each row by its feature-0 band instead:
      // their proofs reach past n = 0, where the nesting has something
      // to check.
      Dataset Banded(Data.schema());
      for (unsigned Row = 0; Row < Data.numRows(); ++Row)
        Banded.addRow(Data.row(Row),
                      static_cast<unsigned>(Data.value(Row, 0)) *
                          Spec.NumClasses / Spec.DistinctValues);
      Data = std::move(Banded);
    }
    SplitContext Ctx(Data);
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(3));
    std::vector<float> X = makeRandomQuery(R, Spec);
    for (const Cell &C : Cells) {
      AbstractLearnerConfig Config = baseConfig(C.Domain, Depth);
      Config.Threat = C.Threat;
      if (C.Cap)
        Config.DisjunctCap = C.Cap;
      std::string Label = std::string(domainKindName(C.Domain)) + "/" +
                          threatModelName(C.Threat) +
                          " cap=" + std::to_string(C.Cap) +
                          " depth=" + std::to_string(Depth) + " trial " +
                          std::to_string(Trial);
      std::optional<uint32_t> Prev;
      bool PrevProven = true;
      for (uint32_t N = 0; N <= 8; ++N) {
        AbstractLearnerResult Result = runAbstractDTrace(
            Ctx, AbstractDataset::entire(Data, N), X.data(), Config);
        ASSERT_EQ(Result.Status, LearnerStatus::Completed) << Label;
        bool Proven = Result.DominatingClass.has_value();
        if (!PrevProven) {
          EXPECT_FALSE(Proven)
              << Label << ": proved at n=" << N << " but not at n-1";
        }
        if (Proven && Prev) {
          EXPECT_EQ(*Result.DominatingClass, *Prev)
              << Label << ": class changed at n=" << N;
        }
        PrevProven = Proven;
        Prev = Result.DominatingClass;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The frontier's merge-time index
//===----------------------------------------------------------------------===//

namespace {

/// The sorted rows of [Lo, Hi) kept with probability \p P.
RowIndexList randomRowRange(Rng &R, uint32_t Lo, uint32_t Hi, double P) {
  RowIndexList Rows;
  for (uint32_t Row = Lo; Row < Hi; ++Row)
    if (R.bernoulli(P))
      Rows.push_back(Row);
  return Rows;
}

/// The frontier dedupe by materializing every child: sort by
/// (budget, rows), then drop adjacent equals.
std::vector<AbstractDataset>
referenceDedupe(std::vector<AbstractDataset> Frontier) {
  std::sort(Frontier.begin(), Frontier.end(),
            [](const AbstractDataset &A, const AbstractDataset &B) {
              if (A.budget() != B.budget())
                return A.budget() < B.budget();
              return A.rows() < B.rows();
            });
  Frontier.erase(std::unique(Frontier.begin(), Frontier.end()),
                 Frontier.end());
  return Frontier;
}

/// One transfer step: the sides of predicates one pool element is
/// restricted by, in emission order.
struct Emission {
  size_t Source;
  std::vector<std::pair<SplitPredicate, bool>> Sides;
};

} // namespace

TEST(FrontierMergePropertyTest, MatchesSortUniqueElementByElement) {
  // Random emissions built to hit every branch of the index and the sort:
  // heavy duplication, row lists sharing long prefixes (so the sort
  // compares past equal words), row lists that are proper prefixes of
  // others, equal rows at different budgets, and restrictions that repeat
  // or coincide — a side that keeps every row copies its parent. The
  // steps are built from bits on a pool of four workers, as the learner's
  // transfer phase builds them, and merged in order by one index reused
  // across trials.
  RandomDatasetSpec Spec;
  Spec.MinRows = 200;
  Spec.MaxRows = 200;
  Spec.NumFeatures = 3;
  Spec.NumClasses = 3;
  Spec.DistinctValues = 6;
  Rng R(20200615);
  Dataset Data = makeRandomDataset(R, Spec);
  SplitContext Ctx(Data);
  RestrictMasks Masks(Ctx);
  ThreadPool Workers(4);
  FrontierIndex Index(Data);
  for (int Trial = 0; Trial < 300; ++Trial) {
    // Rows [0, 100) feed the shared prefixes, [100, 200) the tails.
    RowIndexList Prefix = randomRowRange(R, 0, 100, 0.2 + 0.6 * R.uniform());
    std::vector<AbstractDataset> Pool;
    size_t PoolSize = 1 + R.uniformInt(12);
    while (Pool.size() < PoolSize) {
      const AbstractDataset *Other =
          Pool.empty() ? nullptr : &Pool[R.uniformInt(Pool.size())];
      RowIndexList Rows = [&]() -> RowIndexList {
        switch (Other ? R.uniformInt(4) : 0) {
        case 0: {
          // The shared prefix plus a random tail.
          RowIndexList Rows(Prefix);
          RowIndexList Tail = randomRowRange(R, 100, 200, R.uniform());
          Rows.insert(Rows.end(), Tail.begin(), Tail.end());
          return Rows;
        }
        case 1:
          // A proper prefix of an existing row list.
          return RowIndexList(Other->rows().begin(),
                              Other->rows().begin() +
                                  R.uniformInt(Other->size() + 1));
        case 2:
          // An existing row list, at its own random budget below.
          return Other->rows();
        default:
          return randomRowRange(R, 0, 200, R.uniform());
        }
      }();
      uint32_t Budget =
          static_cast<uint32_t>(R.uniformInt(Rows.size() + 1));
      Pool.emplace_back(Data, std::move(Rows), Budget);
    }

    // A few predicates per trial, concrete and symbolic, so restrictions
    // repeat and distinct thresholds keep the same rows; one keeps every
    // row on its positive side (values are below 6).
    std::vector<SplitPredicate> Preds = {SplitPredicate::threshold(0, 10.0)};
    for (size_t P = 0, E = 1 + R.uniformInt(4); P < E; ++P) {
      uint32_t Feature = static_cast<uint32_t>(R.uniformInt(3));
      double Lo = static_cast<double>(R.uniformInt(6)) + 0.5;
      Preds.push_back(R.bernoulli(0.5)
                          ? SplitPredicate::threshold(Feature, Lo)
                          : SplitPredicate::symbolic(Feature, Lo, Lo + 2.0));
    }
    std::vector<Emission> Steps(1 + R.uniformInt(5 * PoolSize));
    std::vector<AbstractDataset> Materialized;
    uint64_t MaterializedBytes = 0;
    for (Emission &Step : Steps) {
      Step.Source = R.uniformInt(PoolSize);
      for (size_t I = 0, E = R.uniformInt(6); I < E; ++I) {
        Step.Sides.emplace_back(Preds[R.uniformInt(Preds.size())],
                                R.bernoulli(0.5));
        Materialized.push_back(Pool[Step.Source].restrict(
            Step.Sides.back().first, Step.Sides.back().second));
        MaterializedBytes += Materialized.back().stateBytes();
      }
    }

    std::vector<FrontierChildren> Packed(Steps.size());
    parallelFor(&Workers, Steps.size(), [&](size_t S) {
      Packed[S] = FrontierChildren(Masks, Pool[Steps[S].Source],
                                   Steps[S].Sides.size());
      for (const auto &[Pred, Positive] : Steps[S].Sides)
        Packed[S].addRestriction(Pred, Positive);
    });
    for (FrontierChildren &Step : Packed)
      Index.merge(std::move(Step));
    EXPECT_EQ(Index.emitted(), Materialized.size()) << "trial " << Trial;
    EXPECT_EQ(Index.emittedBytes(), MaterializedBytes) << "trial " << Trial;

    std::vector<AbstractDataset> Expected = referenceDedupe(Materialized);
    std::vector<AbstractDataset> Kept = Index.takeSorted();
    EXPECT_EQ(Index.emitted(), 0u) << "trial " << Trial;
    EXPECT_EQ(Index.emittedBytes(), 0u) << "trial " << Trial;
    ASSERT_EQ(Kept.size(), Expected.size()) << "trial " << Trial;
    for (size_t I = 0; I < Expected.size(); ++I) {
      EXPECT_EQ(Kept[I].rows(), Expected[I].rows())
          << "trial " << Trial << ", element " << I;
      EXPECT_EQ(Kept[I].budget(), Expected[I].budget())
          << "trial " << Trial << ", element " << I;
      EXPECT_EQ(Kept[I].counts(), Expected[I].counts())
          << "trial " << Trial << ", element " << I;
      EXPECT_EQ(Kept[I].stateBytes(), Expected[I].stateBytes())
          << "trial " << Trial << ", element " << I;
    }
  }
}

TEST(FrontierMergeTest, CopiedChildKeepsTheRowCapacityItCharges) {
  // Box's filter# child is a join, whose row vector has spare capacity
  // that PeakStateBytes has always charged; the index must charge and
  // keep exactly that, not an exact-capacity copy.
  Dataset Data = figure2Dataset();
  AbstractDataset A(Data, {0, 1, 2, 3}, 1);
  AbstractDataset B(Data, {2, 3, 4, 5}, 2);
  AbstractDataset Joined = AbstractDataset::join(A, B);
  ASSERT_GT(Joined.rows().capacity(), Joined.rows().size());
  const AbstractDataset Expected = Joined; // A copy is at exact capacity.
  const uint64_t Bytes = Joined.stateBytes();
  FrontierIndex Index(Data);
  Index.keep(std::move(Joined));
  EXPECT_EQ(Index.emitted(), 1u);
  EXPECT_EQ(Index.emittedBytes(), Bytes);
  std::vector<AbstractDataset> Kept = Index.takeSorted();
  ASSERT_EQ(Kept.size(), 1u);
  EXPECT_EQ(Kept[0], Expected);
  EXPECT_EQ(Kept[0].counts(), Expected.counts());
  EXPECT_EQ(Kept[0].stateBytes(), Bytes);
  EXPECT_EQ(Index.emitted(), 0u);
}

TEST(FrontierMergeTest, HashSeparatesEqualRowsAtDifferentBudgets) {
  // The index compares budgets after a hash match, but no pair of
  // children reaches that compare: the hash folds (budget, size) into the
  // row sum through a bijective finalizer, so equal rows at different
  // budgets never share a hash. Checked over random rows and budgets.
  Rng R(20260101);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    const size_t Words = 1 + R.uniformInt(20);
    std::vector<uint64_t> Bits(Words);
    uint32_t Size = 0;
    const double Density = R.uniform();
    for (size_t Bit = 0; Bit < 64 * Words; ++Bit)
      if (R.bernoulli(Density)) {
        Bits[Bit / 64] |= uint64_t(1) << (Bit % 64);
        ++Size;
      }
    const uint32_t Budget =
        static_cast<uint32_t>(R.uniformInt(uint64_t(Size) + 1));
    uint32_t Other = static_cast<uint32_t>(R.uniformInt(uint64_t(Size) + 1));
    if (Other == Budget)
      Other = Budget + 1 + static_cast<uint32_t>(R.uniformInt(1u << 20));
    const uint64_t Hash =
        FrontierChildren::hash(Bits.data(), Words, Size, Budget);
    EXPECT_EQ(Hash, FrontierChildren::hash(Bits.data(), Words, Size, Budget));
    EXPECT_NE(Hash, FrontierChildren::hash(Bits.data(), Words, Size, Other))
        << "trial " << Trial << ": budgets " << Budget << " and " << Other;
  }
}

namespace {

/// The first \p Length rows of \p Feature's (value, row id) order, as a
/// row bitset built directly: what a table entry at stride 1 holds.
std::vector<uint64_t> referencePrefix(const SplitContext &Ctx,
                                      unsigned Feature, uint32_t Length) {
  const Dataset &Base = Ctx.base();
  RowIndexList Order = allRows(Base);
  const float *Col = Base.column(Feature);
  std::stable_sort(Order.begin(), Order.end(), [Col](uint32_t A, uint32_t B) {
    return Col[A] < Col[B];
  });
  std::vector<uint64_t> Bits((Base.numRows() + size_t(63)) / 64);
  for (uint32_t I = 0; I < Length; ++I)
    Bits[Order[I] / 64] |= uint64_t(1) << (Order[I] % 64);
  return Bits;
}

/// Random datasets for the bitset restrictions: \p Rows rows, and either
/// many distinct values (a table over more boundaries than it can keep,
/// so its stride exceeds 1) or a handful (ties everywhere, stride 1).
Dataset restrictDataset(Rng &R, unsigned Rows, bool Boolean, bool Distinct) {
  RandomDatasetSpec Spec;
  Spec.MinRows = Rows;
  Spec.MaxRows = Rows;
  Spec.NumFeatures = 3;
  Spec.NumClasses = 3;
  Spec.BooleanFeatures = Boolean;
  Spec.DistinctValues = Distinct ? 100000 : 5;
  return makeRandomDataset(R, Spec);
}

} // namespace

TEST(FrontierRestrictPropertyTest, PrefixMasksMatchTheSortedOrder) {
  // Every prefix a threshold at, below or above a value selects has the
  // length and the rows of the feature's sorted order up to it, whether
  // the table keeps that boundary (stride 1) or rebuilds it from a shorter
  // one (stride > 1).
  Rng R(20261020);
  bool SawStride = false;
  for (unsigned Rows : {1u, 63u, 64u, 65u, 130u, 257u})
    for (bool Boolean : {false, true})
      for (bool Distinct : {false, true}) {
        Dataset Data = restrictDataset(R, Rows, Boolean, Distinct);
        SplitContext Ctx(Data);
        const PrefixMaskTable &Table = Ctx.prefixMasks();
        SawStride |= Table.stride() > 1;
        EXPECT_EQ(Table.maskWords(), (Rows + 63) / 64);
        EXPECT_LE(Table.bytes(),
                  (size_t(3) * Rows + 2 * Table.maskWords()) * 8);
        std::vector<uint64_t> Scratch(Table.maskWords());
        for (unsigned F = 0; F < 3; ++F)
          for (uint32_t Row = 0; Row < Rows; ++Row) {
            const double V = Data.column(F)[Row];
            for (double C : {V - 0.5, V, V + 0.5})
              for (bool Strict : {false, true}) {
                const PrefixMaskTable::Prefix P =
                    Table.prefix(F, C, Strict, Scratch.data());
                uint32_t Length = 0;
                for (uint32_t Other = 0; Other < Rows; ++Other)
                  Length += Strict ? Data.column(F)[Other] < C
                                   : Data.column(F)[Other] <= C;
                EXPECT_EQ(P.Length, Length)
                    << Rows << " rows, feature " << F << ", at " << C;
                EXPECT_EQ(
                    std::vector<uint64_t>(P.Mask, P.Mask + Table.maskWords()),
                    referencePrefix(Ctx, F, Length))
                    << Rows << " rows, feature " << F << ", length " << Length;
              }
          }
      }
  EXPECT_TRUE(SawStride) << "no table kept fewer masks than boundaries";
}

TEST(FrontierRestrictPropertyTest, BitsetChildEqualsRestrict) {
  // A child built from bits and expanded by the index equals restrict#'s
  // element in rows, counts, budget and the bytes it charges: on Real and
  // Boolean features, with ties, concrete and symbolic (Maybe) predicates
  // at and between the values, parents whose rows all lie strictly inside
  // a predicate's (lo, hi), row counts around a word boundary, and tables
  // at stride 1 and above. The children are built on a pool of four
  // workers sharing one context and one set of class masks.
  Rng R(20260401);
  ThreadPool Workers(4);
  for (unsigned Rows : {1u, 63u, 64u, 65u, 130u, 257u})
    for (bool Boolean : {false, true})
      for (bool Distinct : {false, true}) {
        Dataset Data = restrictDataset(R, Rows, Boolean, Distinct);
        SplitContext Ctx(Data);
        RestrictMasks Masks(Ctx);
        std::vector<std::pair<AbstractDataset, std::vector<SplitPredicate>>>
            Cases;
        for (int Trial = 0; Trial < 40; ++Trial) {
          RowIndexList Parent = randomRowRange(R, 0, Rows, R.uniform());
          uint32_t Budget =
              static_cast<uint32_t>(R.uniformInt(Parent.size() + 1));
          const unsigned F = static_cast<unsigned>(R.uniformInt(3));
          std::vector<double> Vals;
          for (uint32_t Row = 0; Row < Rows; ++Row)
            Vals.push_back(Data.column(F)[Row]);
          std::sort(Vals.begin(), Vals.end());
          const double A = Vals[R.uniformInt(Vals.size())];
          const double B = Vals[R.uniformInt(Vals.size())];
          const double Lo = std::min(A, B);
          const double Hi = std::max(A, B);
          std::vector<SplitPredicate> Preds = {
              SplitPredicate::threshold(F, A),
              SplitPredicate::threshold(F, (A + B) / 2),
              SplitPredicate::threshold(F, -1.0),
              SplitPredicate::threshold(F, 1e9)};
          if (Lo < Hi) {
            Preds.push_back(SplitPredicate::symbolic(F, Lo, Hi));
            // A parent strictly inside (lo, hi): every row is Maybe.
            RowIndexList Inside;
            for (uint32_t Row = 0; Row < Rows; ++Row)
              if (Lo < Data.column(F)[Row] && Data.column(F)[Row] < Hi)
                Inside.push_back(Row);
            Cases.push_back(
                {AbstractDataset(Data, Inside, R.uniformInt(Inside.size() + 1)),
                 {SplitPredicate::symbolic(F, Lo, Hi)}});
          }
          Cases.push_back({AbstractDataset(Data, Parent, Budget), Preds});
        }

        std::vector<FrontierChildren> Packed(Cases.size());
        parallelFor(&Workers, Cases.size(), [&](size_t C) {
          Packed[C] = FrontierChildren(Masks, Cases[C].first,
                                       2 * Cases[C].second.size());
          for (const SplitPredicate &Pred : Cases[C].second)
            for (bool Positive : {true, false})
              Packed[C].addRestriction(Pred, Positive);
        });
        for (size_t C = 0; C < Cases.size(); ++C) {
          const AbstractDataset &Parent = Cases[C].first;
          std::vector<AbstractDataset> Expected;
          uint64_t ExpectedBytes = 0;
          for (const SplitPredicate &Pred : Cases[C].second)
            for (bool Positive : {true, false}) {
              Expected.push_back(Parent.restrict(Pred, Positive));
              ExpectedBytes += Expected.back().stateBytes();
            }
          FrontierIndex Index(Data);
          Index.merge(std::move(Packed[C]));
          EXPECT_EQ(Index.emitted(), Expected.size());
          EXPECT_EQ(Index.emittedBytes(), ExpectedBytes);
          Expected = referenceDedupe(std::move(Expected));
          std::vector<AbstractDataset> Got = Index.takeSorted();
          ASSERT_EQ(Got.size(), Expected.size()) << Rows << " rows";
          for (size_t I = 0; I < Got.size(); ++I) {
            const std::string Where = std::to_string(Rows) + " rows, " +
                                      Expected[I].str() + " from " +
                                      Parent.str();
            EXPECT_EQ(Got[I].rows(), Expected[I].rows()) << Where;
            EXPECT_EQ(Got[I].counts(), Expected[I].counts()) << Where;
            EXPECT_EQ(Got[I].budget(), Expected[I].budget()) << Where;
            EXPECT_EQ(Got[I].stateBytes(), Expected[I].stateBytes()) << Where;
          }
        }
      }
}
