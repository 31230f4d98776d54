//===- abstract/AbstractDTrace.cpp - The DTrace# abstract learner -------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "support/Timer.h"

#include <algorithm>
#include <cstring>

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

/// Hash of a child's (budget, rows): a sum of independently mixed row ids
/// (one multiply and one xor-shift each), finalized with the budget and
/// size. The row terms carry no dependency on one another, so the loop
/// runs at the speed of reading the rows rather than at a serial chain's
/// latency. Equal children hash equal; the rare unequal pair that collides
/// is told apart by the full comparison behind every match.
uint64_t childHash(const uint32_t *Rows, uint32_t Size, uint32_t Budget) {
  uint64_t Sum = 0;
  for (const uint32_t *Row = Rows, *End = Rows + Size; Row != End; ++Row) {
    const uint64_t X = uint64_t(*Row) * 0x9e3779b97f4a7c15ULL;
    Sum += X ^ (X >> 29);
  }
  return fmix64(Sum ^ ((uint64_t(Budget) << 32) | Size));
}

constexpr uint32_t EmptySlot = UINT32_MAX;

/// `A.rows() < B.rows()` (lexicographic, a proper prefix first), skipping
/// the long equal prefixes sorted neighbours share 16 rows at a time.
bool rowsLess(const RowIndexList &A, const RowIndexList &B) {
  constexpr size_t Block = 16;
  const size_t Common = std::min(A.size(), B.size());
  const uint32_t *PA = A.data();
  const uint32_t *PB = B.data();
  size_t I = 0;
  while (I + Block <= Common &&
         std::memcmp(PA + I, PB + I, Block * sizeof(uint32_t)) == 0)
    I += Block;
  for (; I < Common; ++I)
    if (PA[I] != PB[I])
      return PA[I] < PB[I];
  return A.size() < B.size();
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
        Tracker(Config.Cprob), Meter(Config.Limits, Config.Cancel) {}

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
    Out.Children.add(abstractFilter(Cur, *Psi, X));
    return Out;
  }
  // Disjunctive filter#: one disjunct per (predicate, feasible side of x).
  for (const SplitPredicate &Pred : Psi->predicates()) {
    if (Meter.interrupted())
      return Out;
    ThreeValued V = Pred.evaluate(X);
    if (V != ThreeValued::False)
      Out.Children.addRestriction(Cur, Pred, /*Positive=*/true);
    if (V != ThreeValued::True)
      Out.Children.addRestriction(Cur, Pred, /*Positive=*/false);
  }
  return Out;
}

std::vector<uint32_t> &FrontierChildren::room(size_t Words) {
  // 16 KiB: a few children of a root-sized parent per block, so the part
  // of a step the merge has passed but not yet freed stays small. On
  // mnist17-binary at depth 2, 64 KiB blocks peaked 0.4 MB higher per
  // verifying thread than 16 KiB blocks did.
  constexpr size_t BlockWords = size_t(1) << 12;
  if (Blocks.empty() ||
      Blocks.back().capacity() - Blocks.back().size() < Words) {
    Blocks.emplace_back();
    Blocks.back().reserve(std::max(BlockWords, Words));
  }
  return Blocks.back();
}

void FrontierChildren::addRestriction(const AbstractDataset &Parent,
                                      const SplitPredicate &Pred,
                                      bool Positive) {
  // Room for every parent row; resize zeroes the counts the kernel adds
  // to, and the second resize trims the rows it did not keep. Neither
  // reallocates: room() leaves that much capacity.
  const size_t NumClasses = Parent.base().numClasses();
  std::vector<uint32_t> &Block = room(NumClasses + Parent.size());
  const size_t Offset = Block.size();
  Block.resize(Offset + NumClasses + Parent.size());
  uint32_t *Counts = Block.data() + Offset;
  uint32_t *Rows = Counts + NumClasses;
  AbstractDataset::RestrictShape Shape =
      Parent.restrictInto(Pred, Positive, Rows, Counts);
  Block.resize(Offset + NumClasses + Shape.Size);
  Headers.push_back({childHash(Rows, Shape.Size, Shape.Budget),
                     static_cast<uint32_t>(Blocks.size() - 1),
                     static_cast<uint32_t>(Offset), Shape.Size, Shape.Budget,
                     Shape.Size});
}

void FrontierChildren::add(const AbstractDataset &Child) {
  assert(Child.counts().capacity() == Child.counts().size() &&
         "stateBytesOf charges exactly numClasses() counts");
  std::vector<uint32_t> &Block = room(Child.counts().size() + Child.size());
  const size_t Offset = Block.size();
  Block.insert(Block.end(), Child.counts().begin(), Child.counts().end());
  Block.insert(Block.end(), Child.rows().begin(), Child.rows().end());
  Headers.push_back({childHash(Child.rows().data(), Child.size(),
                               Child.budget()),
                     static_cast<uint32_t>(Blocks.size() - 1),
                     static_cast<uint32_t>(Offset), Child.size(),
                     Child.budget(),
                     static_cast<uint32_t>(Child.rows().capacity())});
}

void FrontierIndex::merge(FrontierChildren &&Step) {
  const size_t NumClasses = Base->numClasses();
  if (2 * (Kept.size() + Step.size()) > Table.size())
    grow(Kept.size() + Step.size());
  const size_t Mask = Table.size() - 1;
  size_t Freed = 0;
  for (const FrontierChildren::Header &H : Step.Headers) {
    while (Freed < H.Block)
      Step.Blocks[Freed++] = std::vector<uint32_t>();
    ++Emitted;
    EmittedBytes += AbstractDataset::stateBytesOf(H.RowCapacity, NumClasses);
    const uint32_t *Counts = Step.Blocks[H.Block].data() + H.Offset;
    const uint32_t *Rows = Counts + NumClasses;
    size_t Slot = H.Hash & Mask;
    bool Seen = false;
    for (; Table[Slot] != EmptySlot; Slot = (Slot + 1) & Mask) {
      const uint32_t J = Table[Slot];
      const AbstractDataset &K = Kept[J];
      if (KeptHashes[J] == H.Hash && K.size() == H.Size &&
          K.budget() == H.Budget &&
          std::equal(Rows, Rows + H.Size, K.rows().data())) {
        Seen = true;
        break;
      }
    }
    if (Seen)
      continue;
    Table[Slot] = static_cast<uint32_t>(Kept.size());
    KeptHashes.push_back(H.Hash);
    Kept.push_back(AbstractDataset::adopt(*Base, Rows, H.Size, H.RowCapacity,
                                          H.Budget, Counts));
  }
}

void FrontierIndex::grow(size_t MinKept) {
  size_t Slots = std::max<size_t>(16, Table.size());
  while (Slots < 2 * MinKept)
    Slots *= 2;
  Table.assign(Slots, EmptySlot);
  const size_t Mask = Table.size() - 1;
  for (size_t J = 0; J < Kept.size(); ++J) {
    size_t Slot = KeptHashes[J] & Mask;
    while (Table[Slot] != EmptySlot)
      Slot = (Slot + 1) & Mask;
    Table[Slot] = static_cast<uint32_t>(J);
  }
}

std::vector<AbstractDataset> FrontierIndex::takeSorted() {
  std::sort(Kept.begin(), Kept.end(),
            [](const AbstractDataset &A, const AbstractDataset &B) {
              if (A.budget() != B.budget())
                return A.budget() < B.budget();
              return rowsLess(A.rows(), B.rows());
            });
  std::vector<AbstractDataset> Sorted = std::move(Kept);
  Kept.clear();
  KeptHashes.clear();
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
      // in for. Run-ahead memory is limited to the window's steps.
      std::vector<DisjunctStep> Steps(Frontier.size());
      size_t Executors = (Pool ? Pool->size() : 0) + 1;
      size_t WindowChunks = 4 * Executors;
      OrderedFanout Fanout(Pool, Frontier.size(), /*ChunkSize=*/0,
                           [this, &Steps, &Frontier](size_t I) {
                             Steps[I] = transferStep(Frontier[I]);
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
        DisjunctStep &Step = Steps[I];
        for (const std::vector<Interval> &Probs : Step.ForcedTerminals)
          addForcedTerminal(Probs);
        for (AbstractDataset &Terminal : Step.Terminals)
          addTerminal(std::move(Terminal));
        Result.BestSplitCalls += Step.CalledBestSplit;
        Index.merge(std::move(Step.Children));
        // Release the merged step's buffers now rather than at the end
        // of the iteration: with huge frontiers, every step's terminals
        // and last block would otherwise stay alive alongside the kept
        // children.
        Step = DisjunctStep();
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
  return Result;
}

AbstractLearnerResult
antidote::runAbstractDTrace(const SplitContext &Ctx,
                            const AbstractDataset &Initial, const float *X,
                            const AbstractLearnerConfig &Config) {
  return LearnerRun(Ctx, X, Config).run(Initial);
}
