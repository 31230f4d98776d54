//===- abstract/AbstractDTrace.cpp - The DTrace# abstract learner -------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "support/Timer.h"

#include <algorithm>
#include <memory>

using namespace antidote;

const char *antidote::domainKindName(AbstractDomainKind Kind) {
  switch (Kind) {
  case AbstractDomainKind::Box:
    return "box";
  case AbstractDomainKind::Disjuncts:
    return "disjuncts";
  case AbstractDomainKind::DisjunctsCapped:
    return "disjuncts-capped";
  }
  assert(false && "unknown domain kind");
  return "?";
}

namespace {

/// The murmur3 64-bit finalizer: every input bit reaches every output bit.
uint64_t fmix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// One word's term of FrontierChildren::hash: the word salted with its
/// index, then one multiply and one xor-shift. The terms carry no
/// dependency on one another, so the sum runs at the speed of reading the
/// words rather than at a serial chain's latency.
inline uint64_t hashTerm(uint64_t Word, size_t I) {
  const uint64_t X =
      (Word ^ (I * 0x9e3779b97f4a7c15ULL)) * 0xbf58476d1ce4e5b9ULL;
  return X ^ (X >> 31);
}

/// Folds the size and budget into a sum of hashTerm()s. fmix64 is a
/// bijection and (Budget << 32 | Size) is injective, so for one sum every
/// budget hashes differently.
inline uint64_t finishHash(uint64_t Sum, uint32_t Size, uint32_t Budget) {
  return fmix64(Sum ^ ((uint64_t(Budget) << 32) | Size));
}

/// What one pass over a child's W words yields besides its bits.
struct ChildPass {
  uint32_t Size;
  uint32_t Definite;
  uint64_t HashSum;
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) &&        \
    !defined(__SANITIZE_THREAD__)
// The baseline x86-64 target has no popcount instruction, so a portable
// build would call a library routine for every word; the compiler also
// emits a copy with the instruction and picks one by CPU at load time.
// A ThreadSanitizer build keeps one copy: the loader runs the clones'
// resolver before the sanitizer's runtime starts, and the program crashes.
#define ANTIDOTE_POPCNT_CLONES                                                 \
  __attribute__((target_clones("popcnt", "default")))
#else
#define ANTIDOTE_POPCNT_CLONES
#endif

/// The pass that builds one child: Out = Parent AND (Keep XOR Flip), with
/// its size, hash sum and class counts (every class but the last by
/// popcount against its mask, the last as the rest), and the popcount of
/// Parent AND (Definite XOR Flip), or the size when \p Definite is null.
ANTIDOTE_POPCNT_CLONES ChildPass
childPass(const uint64_t *Parent, const uint64_t *Keep,
          const uint64_t *Definite, uint64_t Flip, size_t Words,
          const uint64_t *ClassBits, unsigned NumClasses, uint64_t *Out,
          uint32_t *Counts) {
  ChildPass P{0, 0, 0};
  for (size_t I = 0; I < Words; ++I) {
    const uint64_t Word = Parent[I] & (Keep[I] ^ Flip);
    Out[I] = Word;
    P.Size += static_cast<uint32_t>(__builtin_popcountll(Word));
    P.HashSum += hashTerm(Word, I);
  }
  P.Definite = P.Size;
  if (Definite) {
    P.Definite = 0;
    for (size_t I = 0; I < Words; ++I)
      P.Definite += static_cast<uint32_t>(
          __builtin_popcountll(Parent[I] & (Definite[I] ^ Flip)));
  }
  uint32_t Rest = P.Size;
  for (unsigned C = 0; C + 1 < NumClasses; ++C) {
    const uint64_t *Class = ClassBits + C * Words;
    uint32_t N = 0;
    for (size_t I = 0; I < Words; ++I)
      N += static_cast<uint32_t>(__builtin_popcountll(Out[I] & Class[I]));
    Counts[C] = N;
    Rest -= N;
  }
  Counts[NumClasses - 1] = Rest;
  return P;
}

constexpr uint32_t EmptySlot = UINT32_MAX;

/// `A.rows() < B.rows()` (lexicographic, a proper prefix first) for two
/// row sets given as row bitsets of \p Words words. Both hold the
/// same rows below the lowest row D in exactly one of them. If D is A's,
/// A's next row is D and B's is larger, unless B has none left and is a
/// proper prefix of A; symmetrically if D is B's.
bool bitsRowsLess(const uint64_t *A, const uint64_t *B, size_t Words) {
  size_t I = 0;
  while (I < Words && A[I] == B[I])
    ++I;
  if (I == Words)
    return false;
  const uint64_t Diff = A[I] ^ B[I];
  const uint64_t D = Diff & (~Diff + 1);
  const uint64_t *Other = (A[I] & D) ? B : A;
  // Whether Other has a row above D.
  bool Above = (Other[I] & ~((D << 1) - 1)) != 0;
  for (size_t J = I + 1; !Above && J < Words; ++J)
    Above = Other[J] != 0;
  return Other == B ? Above : !Above;
}

/// Mutable run state threaded through the driver helpers.
///
/// Concurrency contract: every run is two alternating phases per depth
/// iteration. The *transfer* phase (`transferStep`) is const — it reads
/// Ctx/X/Config and polls the meter, but touches no mutable member — so
/// any number of pool workers may execute it on distinct disjuncts. The
/// *merge* phase runs on the calling thread only and is the single writer
/// of Tracker, Result, and the peak accounting.
class LearnerRun {
public:
  LearnerRun(const SplitContext &Ctx, const float *X,
             const AbstractLearnerConfig &Config)
      : Ctx(Ctx), X(X), Config(Config), Model(threatModel(Config.Threat)),
        Tracker(Config.Cprob), Meter(Config.Limits, Config.Cancel) {
    if (Config.Domain != AbstractDomainKind::Box)
      Masks.emplace(Ctx);
  }

  AbstractLearnerResult run(const AbstractDataset &Initial);

private:
  /// Everything one disjunct's transfer step produces, in the order the
  /// serial learner would have emitted it: the forced probability-vector
  /// terminals (flip model only), then the feasible `pure` abstract-state
  /// terminals, then (when ⋄ ∈ Ψ) the disjunct itself, then the child
  /// disjuncts.
  struct DisjunctStep {
    std::vector<std::vector<Interval>> ForcedTerminals;
    std::vector<AbstractDataset> Terminals;
    FrontierChildren Children;
    std::optional<AbstractDataset> BoxChild; ///< Box's `filter#` join.
    bool CalledBestSplit = false;
  };

  /// Adds a terminal abstract state (a place where some concrete run of
  /// DTrace returns) and folds it into the domination check through the
  /// threat model's `cprob#`. Merge phase only.
  void addTerminal(AbstractDataset Terminal) {
    Tracker.addTerminal(Model.classProbabilities(Terminal, Config.Cprob));
    ++Result.NumTerminals;
    Result.Terminals.push_back(std::move(Terminal));
  }

  /// Adds a terminal known only as an exact probability vector (a forced
  /// pure leaf under the flip model). Merge phase only.
  void addForcedTerminal(const std::vector<Interval> &Probs) {
    Tracker.addTerminal(Probs);
    ++Result.NumTerminals;
  }

  /// True once the run should stop (cancellation, timeout, resource
  /// limit, or the refutation shortcut). Sets Result.Status accordingly.
  /// The budget is checked *before* the refutation shortcut so that an
  /// interrupted run always reports its interruption status.
  bool shouldAbort(size_t FrontierDisjuncts, uint64_t FrontierBytes) {
    switch (Meter.check(FrontierDisjuncts, FrontierBytes)) {
    case BudgetOutcome::Ok:
      break;
    case BudgetOutcome::Cancelled:
      Result.Status = LearnerStatus::Cancelled;
      return true;
    case BudgetOutcome::Timeout:
      Result.Status = LearnerStatus::Timeout;
      return true;
    case BudgetOutcome::ResourceLimit:
      Result.Status = LearnerStatus::ResourceLimit;
      return true;
    }
    return Config.StopOnRefutation && Tracker.failed();
  }

  /// The pure per-disjunct transfer step: the entropy conditional, then
  /// bestSplit# / the ⋄ conditional / filter#. Const — safe to run on any
  /// worker concurrently with other disjuncts' steps.
  DisjunctStep transferStep(const AbstractDataset &Cur) const;

  const SplitContext &Ctx;
  const float *X;
  const AbstractLearnerConfig &Config;
  const ThreatModel &Model;
  /// What the disjunctive `filter#` builds children from; none under Box.
  std::optional<RestrictMasks> Masks;
  DominationTracker Tracker;
  ResourceMeter Meter;
  AbstractLearnerResult Result;
};

} // namespace

LearnerRun::DisjunctStep
LearnerRun::transferStep(const AbstractDataset &Cur) const {
  DisjunctStep Out;
  if (!Model.collectPureTerminals(Cur, Config.Domain, Out.Terminals,
                                  Out.ForcedTerminals))
    return Out;

  // An interruption inside bestSplit# yields nullopt (a truncated Ψ is
  // unrepresentable — it could fabricate terminals), and one in the
  // fan-out below leaves a truncated child list; both are sound because
  // the persistent meter trips the merge phase's very next shouldAbort()
  // poll — before the budget outcome could be masked — so a truncated
  // state never reaches a Completed verdict.
  std::optional<PredicateSet> Psi =
      Model.bestSplit(Ctx, Cur, Config.Cprob, Config.Gini, &Meter);
  Out.CalledBestSplit = true;
  if (!Psi)
    return Out;

  // The φ = ⋄ conditional (§4.7): if ⋄ ∈ Ψ, some concrete run returns here
  // with its training set unchanged.
  if (Psi->containsNull())
    Out.Terminals.push_back(Cur);
  if (Psi->predicates().empty())
    return Out;

  if (Config.Domain == AbstractDomainKind::Box) {
    Out.BoxChild = abstractFilter(Cur, *Psi, X);
    return Out;
  }
  // Disjunctive filter#: one disjunct per (predicate, feasible side of x).
  size_t Sides = 0;
  for (const SplitPredicate &Pred : Psi->predicates())
    Sides += Pred.evaluate(X) == ThreeValued::Maybe ? 2 : 1;
  Out.Children = FrontierChildren(*Masks, Cur, Sides);
  for (const SplitPredicate &Pred : Psi->predicates()) {
    if (Meter.interrupted())
      return Out;
    ThreeValued V = Pred.evaluate(X);
    if (V != ThreeValued::False)
      Out.Children.addRestriction(Pred, /*Positive=*/true);
    if (V != ThreeValued::True)
      Out.Children.addRestriction(Pred, /*Positive=*/false);
  }
  return Out;
}

RestrictMasks::RestrictMasks(const SplitContext &Ctx)
    : Base(Ctx.base()), Table(Ctx.prefixMasks()) {
  const size_t Words = Table.maskWords();
  const unsigned Masked = std::max(Base.numClasses(), 1u) - 1;
  ClassBits.assign(Masked * Words, 0);
  const uint32_t *Labels = Base.labels();
  for (uint32_t Row = 0; Row < Base.numRows(); ++Row)
    if (Labels[Row] < Masked)
      ClassBits[Labels[Row] * Words + Row / 64] |= uint64_t(1) << (Row % 64);
}

FrontierChildren::FrontierChildren(const RestrictMasks &Masks,
                                   const AbstractDataset &Parent,
                                   size_t MaxChildren)
    : Masks(&Masks), ParentBudget(Parent.budget()),
      ParentBits(Masks.Table.maskWords(), 0),
      Scratch(2 * Masks.Table.maskWords()) {
  for (uint32_t Row : Parent.rows())
    ParentBits[Row / 64] |= uint64_t(1) << (Row % 64);
  Headers.reserve(MaxChildren);
  Counts.resize(MaxChildren * Parent.base().numClasses());
  Bits.resize(MaxChildren * ParentBits.size());
}

uint64_t FrontierChildren::hash(const uint64_t *Bits, size_t Words,
                                uint32_t Size, uint32_t Budget) {
  uint64_t Sum = 0;
  for (size_t I = 0; I < Words; ++I)
    Sum += hashTerm(Bits[I], I);
  return finishHash(Sum, Size, Budget);
}

void FrontierChildren::addRestriction(const SplitPredicate &Pred,
                                      bool Positive) {
  const PrefixMaskTable &Table = Masks->Table;
  const unsigned Feature = Pred.feature();
  const unsigned NumClasses = Masks->Base.numClasses();
  const size_t Words = ParentBits.size();
  // Rows with V ≤ lo evaluate True and rows with lo < V < hi Maybe, and
  // the True rows, like the True or Maybe rows (V < hi, or V ≤ lo), are a
  // prefix of the feature's value-sorted order. The positive side keeps
  // the second prefix and is definite on the first; the negative side
  // keeps the complement of the first and is definite on the complement
  // of the second. A concrete predicate has lo = hi, so the prefixes
  // coincide and the child is as definite as it is large.
  const PrefixMaskTable::Prefix AtMostLo =
      Table.prefix(Feature, Pred.lo(), /*Strict=*/false, Scratch.data());
  const PrefixMaskTable::Prefix BelowHi =
      Pred.isSymbolic() ? Table.prefix(Feature, Pred.hi(), /*Strict=*/true,
                                       Scratch.data() + Words)
                        : AtMostLo;
  const PrefixMaskTable::Prefix &Keep = Positive ? BelowHi : AtMostLo;
  const PrefixMaskTable::Prefix &Definite = Positive ? AtMostLo : BelowHi;

  const size_t Child = Headers.size();
  assert((Child + 1) * NumClasses <= Counts.size() &&
         "more children than the constructor made room for");
  const ChildPass P = childPass(
      ParentBits.data(), Keep.Mask,
      AtMostLo.Length == BelowHi.Length ? nullptr : Definite.Mask,
      Positive ? 0 : ~uint64_t(0), Words, Masks->ClassBits.data(),
      NumClasses, Bits.data() + Child * Words,
      Counts.data() + Child * NumClasses);
  const uint32_t Budget =
      AbstractDataset::restrictBudget(ParentBudget, P.Size, P.Definite);
  Headers.push_back({finishHash(P.HashSum, P.Size, Budget), P.Size, Budget});
}

void FrontierIndex::merge(FrontierChildren &&Step) {
  assert(!Whole && "a child kept whole is its depth's only child");
  const size_t NumClasses = Base->numClasses();
  assert((Step.size() == 0 || Step.ParentBits.size() == Words) &&
         "children over another base");
  if (2 * (Kept.size() + Step.size()) > Table.size())
    grow(Kept.size() + Step.size());
  const size_t Mask = Table.size() - 1;
  for (size_t C = 0, E = Step.size(); C < E; ++C) {
    const FrontierChildren::Header &H = Step.Headers[C];
    ++Emitted;
    EmittedBytes += AbstractDataset::stateBytesOf(H.Size, NumClasses);
    const uint64_t *Bits = Step.Bits.data() + C * Words;
    size_t Slot = H.Hash & Mask;
    bool Seen = false;
    for (; Table[Slot] != EmptySlot; Slot = (Slot + 1) & Mask) {
      const uint32_t J = Table[Slot];
      // The hash folds the budget in through a bijection, so equal bits
      // at different budgets never share a hash and no test reaches a
      // budget mismatch here (FrontierMergeTest.
      // HashSeparatesEqualRowsAtDifferentBudgets checks the bijection);
      // the compare stays so that a match never rests on the hash.
      if (Kept[J].Hash == H.Hash && Kept[J].Budget == H.Budget &&
          std::equal(Bits, Bits + Words, keptBits(J))) {
        Seen = true;
        break;
      }
    }
    if (Seen)
      continue;
    if (Kept.size() % KeptBlock == 0) {
      KeptBits.emplace_back();
      KeptBits.back().reserve(KeptBlock * Words);
    }
    Table[Slot] = static_cast<uint32_t>(Kept.size());
    Kept.push_back(H);
    const uint32_t *Counts = Step.Counts.data() + C * NumClasses;
    KeptCounts.insert(KeptCounts.end(), Counts, Counts + NumClasses);
    KeptBits.back().insert(KeptBits.back().end(), Bits, Bits + Words);
  }
}

void FrontierIndex::keep(AbstractDataset &&Child) {
  assert(Emitted == 0 && "a child kept whole must be its depth's only one");
  ++Emitted;
  EmittedBytes += Child.stateBytes();
  Whole = std::move(Child);
}

void FrontierIndex::grow(size_t MinKept) {
  size_t Slots = std::max<size_t>(16, Table.size());
  while (Slots < 2 * MinKept)
    Slots *= 2;
  Table.assign(Slots, EmptySlot);
  const size_t Mask = Table.size() - 1;
  for (size_t J = 0; J < Kept.size(); ++J) {
    size_t Slot = Kept[J].Hash & Mask;
    while (Table[Slot] != EmptySlot)
      Slot = (Slot + 1) & Mask;
    Table[Slot] = static_cast<uint32_t>(J);
  }
}

std::vector<AbstractDataset> FrontierIndex::takeSorted() {
  std::vector<AbstractDataset> Sorted;
  if (Whole) {
    Sorted.push_back(std::move(*Whole));
    Whole.reset();
  }
  // Sort the kept children on (budget, bits) while their bits are all
  // there. Then expand them in the order they were kept, freeing each
  // block of bits once its children are elements, so a child's bits and
  // its element are never both held for long; the elements then move
  // into the sorted order.
  const size_t NumKept = Kept.size();
  std::vector<uint32_t> Order(NumKept);
  for (uint32_t J = 0; J < NumKept; ++J)
    Order[J] = J;
  std::sort(Order.begin(), Order.end(), [this](uint32_t A, uint32_t B) {
    if (Kept[A].Budget != Kept[B].Budget)
      return Kept[A].Budget < Kept[B].Budget;
    return bitsRowsLess(keptBits(A), keptBits(B), Words);
  });
  const size_t NumClasses = Base->numClasses();
  std::vector<AbstractDataset> Expanded;
  Expanded.reserve(NumKept);
  for (size_t J = 0; J < NumKept; ++J) {
    Expanded.push_back(AbstractDataset::fromBits(
        *Base, keptBits(J), Kept[J].Size, Kept[J].Budget,
        KeptCounts.data() + J * NumClasses));
    if (J % KeptBlock == KeptBlock - 1 || J + 1 == NumKept)
      KeptBits[J / KeptBlock] = std::vector<uint64_t>();
  }
  Sorted.reserve(Sorted.size() + NumKept);
  for (uint32_t J : Order)
    Sorted.push_back(std::move(Expanded[J]));
  Kept.clear();
  KeptCounts.clear();
  KeptBits.clear();
  std::fill(Table.begin(), Table.end(), EmptySlot);
  Emitted = 0;
  EmittedBytes = 0;
  return Sorted;
}

AbstractLearnerResult LearnerRun::run(const AbstractDataset &Initial) {
  assert(!Initial.isEmptySet() && "DTrace# needs a non-empty abstract set");
  assert(Model.supportsDomain(Config.Domain) &&
         "threat model does not support the requested abstract domain");
  Timer Elapsed;
  // Null/empty means everything runs inline on this thread.
  ThreadPool *Pool = Config.FrontierPool;

  std::vector<AbstractDataset> Frontier;
  Frontier.push_back(Initial);
  Result.PeakDisjuncts = 1;
  Result.PeakStateBytes = Initial.stateBytes();
  FrontierIndex Index(Initial.base());

  bool Aborted = false;
  for (unsigned Iter = 0; Iter < Config.Depth && !Frontier.empty(); ++Iter) {
    {
      // Transfer phase: the workers compute per-disjunct steps out of
      // order while the merge below consumes them strictly in disjunct-
      // index order — replaying exactly the serial emission order, so
      // terminals, counters, and abort points are identical for every
      // pool size.
      // The claim window bounds how far the workers may run ahead of the
      // merge (a few chunks per executor): without it, a run that a
      // budget cap would stop mid-merge could first materialize the
      // whole next frontier in Steps — precisely the OOM the caps stand
      // in for. Run-ahead memory is limited to the window's steps: a
      // slot holds a step only from its transfer to its merge.
      std::vector<std::unique_ptr<DisjunctStep>> Steps(Frontier.size());
      size_t Executors = (Pool ? Pool->size() : 0) + 1;
      size_t WindowChunks = 4 * Executors;
      OrderedFanout Fanout(Pool, Frontier.size(), /*ChunkSize=*/0,
                           [this, &Steps, &Frontier](size_t I) {
                             Steps[I] = std::make_unique<DisjunctStep>(
                                 transferStep(Frontier[I]));
                           },
                           WindowChunks);

      // Merge phase: single writer of the tracker, the index and every
      // counter. The caps see every emitted child, duplicates included.
      for (size_t I = 0, E = Frontier.size(); I < E; ++I) {
        if ((Aborted = shouldAbort(Frontier.size() + Index.emitted(),
                                   Index.emittedBytes()))) {
          // Refuted or over budget: the disjuncts past I will never be
          // merged, so tell the workers to stop paying for them.
          Fanout.cancelRemaining();
          break;
        }
        Fanout.awaitItem(I);
        DisjunctStep &Step = *Steps[I];
        for (const std::vector<Interval> &Probs : Step.ForcedTerminals)
          addForcedTerminal(Probs);
        for (AbstractDataset &Terminal : Step.Terminals)
          addTerminal(std::move(Terminal));
        Result.BestSplitCalls += Step.CalledBestSplit;
        if (Step.BoxChild)
          Index.keep(std::move(*Step.BoxChild));
        else
          Index.merge(std::move(Step.Children));
        // Release the merged step and its parent now rather than at the
        // end of the iteration: with huge frontiers, every step's
        // terminals and every consumed disjunct's rows would otherwise
        // stay alive alongside the kept children. No worker reads
        // disjunct I again once its step is done.
        Steps[I].reset();
        AbstractDataset Consumed = std::move(Frontier[I]);
      }
      // Fanout's destructor joins any worker still finishing a claimed
      // chunk before Steps/Frontier leave scope.
    }
    if (Aborted)
      break;

    std::vector<AbstractDataset> Next = Index.takeSorted();
    if (Config.Domain == AbstractDomainKind::DisjunctsCapped &&
        Config.DisjunctCap > 0) {
      // §6.3's precision-for-memory trade: collapse the frontier to the
      // cap by joining *adjacent* disjuncts. After the lexicographic
      // sort, neighbours share most of their rows, so pairwise halving
      // loses far less precision than folding an arbitrary overflow tail
      // into one element.
      while (Next.size() > Config.DisjunctCap) {
        std::vector<AbstractDataset> Halved;
        Halved.reserve((Next.size() + 1) / 2);
        for (size_t I = 0; I + 1 < Next.size(); I += 2)
          Halved.push_back(AbstractDataset::join(Next[I], Next[I + 1]));
        if (Next.size() % 2)
          Halved.push_back(std::move(Next.back()));
        Next = std::move(Halved);
      }
    }

    uint64_t LiveBytes = 0;
    for (const AbstractDataset &D : Next)
      LiveBytes += D.stateBytes();
    for (const AbstractDataset &D : Result.Terminals)
      LiveBytes += D.stateBytes();
    Result.PeakDisjuncts = std::max(Result.PeakDisjuncts, Next.size());
    Result.PeakStateBytes = std::max(Result.PeakStateBytes, LiveBytes);

    if ((Aborted = shouldAbort(Next.size(), LiveBytes)))
      break;
    Frontier = std::move(Next);
  }

  // Depth exhaustion: the surviving frontier states are terminal.
  if (!Aborted)
    for (AbstractDataset &D : Frontier) {
      addTerminal(std::move(D));
      if (Config.StopOnRefutation && Tracker.failed())
        break;
    }

  Result.Refuted = Tracker.failed();
  if (Result.Status == LearnerStatus::Completed && !Result.Refuted)
    Result.DominatingClass = Tracker.dominatingClass();
  Result.Seconds = Elapsed.seconds();
  return std::move(Result);
}

AbstractLearnerResult
antidote::runAbstractDTrace(const SplitContext &Ctx,
                            const AbstractDataset &Initial, const float *X,
                            const AbstractLearnerConfig &Config) {
  return LearnerRun(Ctx, X, Config).run(Initial);
}
