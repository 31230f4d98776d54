//===- abstract/AbstractDTrace.h - The DTrace# abstract learner -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `DTrace#` — the abstract interpretation of the trace-based learner
/// (§4.3-§4.7), in three domain configurations:
///
///  - **Box** (the paper's non-disjunctive domain): the learner state is a
///    single (⟨T,n⟩, Ψ) pair; `filter#` joins all per-predicate
///    restrictions, and the feasible `pure` restrictions of the
///    `ent(T) = 0` conditional are joined into one terminal.
///  - **Disjuncts** (§5.2): the state is a set of disjuncts; `filter#`
///    emits one disjunct per (predicate, side of x) and each feasible
///    `pure` restriction becomes its own terminal. Joins are set unions.
///  - **DisjunctsCapped** (our implementation of the future-work strategy
///    §6.3 sketches): like Disjuncts, but whenever the frontier exceeds a
///    cap the overflow disjuncts are joined into one, trading precision
///    for bounded memory.
///
/// Terminal abstract states arise from three places — feasible `ent = 0`
/// pure branches, ⋄ ∈ `bestSplit#` branches, and depth exhaustion — and are
/// streamed into a `DominationTracker` so verification can stop the moment
/// Corollary 4.12 becomes unsatisfiable.
///
/// The engine is generic over the poisoning **threat model**
/// (abstract/ThreatModel.h): every model-specific transformer — `cprob#`,
/// the pure-leaf conditional, the `bestSplit#` candidate/overlap rule —
/// is supplied by `Config.Threat`'s `ThreatModel`, so ∆n removal and
/// label-flip contamination share the frontier loop, the frontier
/// fan-out, the resource accounting, and cancellation below.
///
/// Each depth iteration is split into two phases so one verification can
/// scale across cores (`FrontierPool`): a pure per-disjunct *transfer*
/// phase (the `ent = 0` conditional, `bestSplit#`, and `filter#` for one
/// disjunct, producing that disjunct's terminals and children) that fans
/// out over a `ThreadPool`, and a sequential *merge* phase — the single
/// writer of the domination tracker, the frontier index, the overflow
/// join, and every resource counter — that folds the per-disjunct results
/// in disjunct-index order. Each transfer step runs `bestSplit#` serially
/// on its executor and builds its children as row bitsets
/// (`FrontierChildren`): every side of a predicate is a prefix of the
/// feature's value-sorted order or the complement of one, so a child is
/// the parent's bits AND a prefix mask the `SplitContext` keeps, and its
/// size, class counts, budget and hash all come from those W words. No
/// element is built for a child there.
///
/// Tied predicates often induce the same restriction, so about half of a
/// depth's children are copies. The merge drops them as it meets them
/// (`FrontierIndex`): it probes a per-depth index of the children already
/// kept and keeps the record of a child it has not seen; rows are expanded
/// only for kept children, once the depth ends, so no duplicate is ever
/// allocated. A child's W words are not what the caps charge for it (its
/// rows are): a step's bits live until the merge consumes it, and a kept
/// child's until its depth ends. The resource caps still count every
/// emitted child, duplicates included, at the bytes the element would
/// charge, so abort points do not depend on how many children repeat.
/// Box's one child per depth (the `filter#` join) goes straight to the
/// next frontier: nothing could probe it.
/// Between depths the kept children are sorted into the fixed
/// (budget, rows) order that the capped joins and the next depth's
/// emission order depend on. Because every merge replays exactly the
/// serial order, the result (terminals, certificates, `PeakDisjuncts`,
/// `PeakStateBytes`, `BestSplitCalls`) is bit-identical for every pool
/// size in all three domains; only wall-clock time changes.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_ABSTRACTDTRACE_H
#define ANTIDOTE_ABSTRACT_ABSTRACTDTRACE_H

#include "abstract/AbstractBestSplit.h"
#include "abstract/AbstractDataset.h"
#include "abstract/AbstractFilter.h"
#include "abstract/Domination.h"
#include "abstract/ThreatModel.h"
#include "concrete/BestSplit.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"

#include <optional>

namespace antidote {

/// Which abstract-state representation to run DTrace# with.
enum class AbstractDomainKind : uint8_t {
  Box,             ///< Single-element domain (§4.3).
  Disjuncts,       ///< Unbounded disjunctive domain (§5.2).
  DisjunctsCapped, ///< Disjunctive with join-on-overflow (§6.3).
};

const char *domainKindName(AbstractDomainKind Kind);

/// Knobs for one DTrace# run.
struct AbstractLearnerConfig {
  unsigned Depth = 1;
  AbstractDomainKind Domain = AbstractDomainKind::Box;

  /// Which perturbation set the budget n of the initial ⟨T, n⟩ ranges
  /// over (abstract/ThreatModel.h). The model must support `Domain`
  /// (flips run the Disjuncts domain only).
  ThreatModelKind Threat = ThreatModelKind::Removal;

  CprobTransformerKind Cprob = CprobTransformerKind::Optimal;
  GiniLiftingKind Gini = GiniLiftingKind::ExactTerm;

  /// DisjunctsCapped only: max disjuncts kept per iteration before the
  /// overflow is joined. (A precision knob, not a resource cap — the caps
  /// live in `Limits`.)
  size_t DisjunctCap = 64;

  /// The run's resource budget (timeout / disjunct cap / state-byte cap);
  /// see support/Budget.h, the single home of these knobs.
  ResourceLimits Limits;

  /// Optional shared cancellation token. The learner polls it inside each
  /// depth iteration (per disjunct and inside bestSplit#'s candidate
  /// enumeration), so a controller can stop an in-flight run cooperatively
  /// without waiting for the current depth level to finish.
  const CancellationToken *Cancel = nullptr;

  /// Stop as soon as domination becomes impossible (sound for
  /// verification; disable to obtain the complete terminal set in tests).
  bool StopOnRefutation = true;

  /// Optional pool the per-frontier disjunct fan-out spreads over, with
  /// the calling thread as one more executor; null (default) or empty
  /// keeps the whole run on the calling thread. Results are bit-identical
  /// for every pool size; this is purely a wall-clock knob for the
  /// huge-frontier regimes of the disjunctive domains (a Box run has a
  /// one-element frontier and never fans out). The pool is externally
  /// owned, so a caller issuing many runs spawns its threads once. It may
  /// be shared with other concurrent runs: every fan-out's consumer
  /// computes unclaimed work itself, so a starved fan-out degrades to
  /// serial instead of deadlocking.
  ThreadPool *FrontierPool = nullptr;
};

/// Why the learner stopped.
enum class LearnerStatus : uint8_t {
  Completed,     ///< Fixed depth reached (or every path terminated early).
  Timeout,       ///< Wall-clock budget exhausted.
  ResourceLimit, ///< Disjunct/state-byte cap exceeded (the paper's OOM).
  Cancelled,     ///< Stopped via the shared CancellationToken.
};

/// Everything a DTrace# run produces.
struct AbstractLearnerResult {
  LearnerStatus Status = LearnerStatus::Completed;

  /// Terminal abstract training sets. Possibly truncated when the run
  /// stopped early (refutation, timeout, or resource limit).
  std::vector<AbstractDataset> Terminals;

  /// Total terminals folded into the domination check: `Terminals.size()`
  /// plus the forced probability-vector terminals some threat models emit
  /// (a flip attacker forcing a pure leaf) that have no abstract-state
  /// representation. Equals `Terminals.size()` under Removal.
  size_t NumTerminals = 0;

  /// The Corollary 4.12 dominating class over all terminals, when it
  /// exists and Status == Completed.
  std::optional<unsigned> DominatingClass;

  /// True iff domination was conclusively refuted (some terminal has no
  /// dominator or two terminals disagree).
  bool Refuted = false;

  size_t PeakDisjuncts = 0;
  uint64_t PeakStateBytes = 0;
  unsigned BestSplitCalls = 0;
  double Seconds = 0.0;
};

/// What the disjunctive `filter#` reads to build children as row bitsets
/// over one run's base: the context's prefix-mask table (built on the
/// first run that asks for it) and the rows of every class but the last as
/// bitsets. The class masks are built per run, not kept in the context,
/// because a context is label-independent (the flip enumeration relabels
/// its base under one). Read-only once built, so every pool worker of the
/// run shares it.
struct RestrictMasks {
  explicit RestrictMasks(const SplitContext &Ctx);

  const Dataset &Base;
  const PrefixMaskTable &Table;
  /// Class C < numClasses() - 1 at [C · maskWords(), (C + 1) · maskWords()).
  std::vector<uint64_t> ClassBits;
};

/// The children one transfer step emits from its parent, each packed as a
/// fixed-size record rather than one element each: its per-class counts
/// and its row bitset (W = ⌈numRows / 64⌉ words), plus a header with its
/// hash, size and budget. One executor fills it in the transfer phase; the
/// merge consumes it through a `FrontierIndex`.
class FrontierChildren {
public:
  /// No children (a step that emits none).
  FrontierChildren() = default;

  /// Children of \p Parent, whose rows it turns into a bitset once, with
  /// room for \p MaxChildren records.
  FrontierChildren(const RestrictMasks &Masks, const AbstractDataset &Parent,
                   size_t MaxChildren);

  /// Appends `Parent.restrict(Pred, Positive)` without building it: the
  /// parent's bits AND the side's prefix mask (or its complement), with
  /// the size, class counts, budget and hash taken in the same pass over
  /// the W words.
  void addRestriction(const SplitPredicate &Pred, bool Positive);

  size_t size() const { return Headers.size(); }

  /// The hash of a child whose rows are the \p Size bits set in \p Bits
  /// (\p Words words) at budget \p Budget: a sum of independently mixed
  /// words, finalized with the budget and size. The finalizer is a
  /// bijection, so two children with equal rows and different budgets
  /// never share a hash.
  static uint64_t hash(const uint64_t *Bits, size_t Words, uint32_t Size,
                       uint32_t Budget);

private:
  friend class FrontierIndex;

  struct Header {
    uint64_t Hash;
    uint32_t Size;
    uint32_t Budget;
  };

  const RestrictMasks *Masks = nullptr;
  uint32_t ParentBudget = 0;
  std::vector<uint64_t> ParentBits;
  /// Room for the two masks of a side a table rebuilds (stride > 1).
  std::vector<uint64_t> Scratch;
  std::vector<Header> Headers;
  /// The records, sized for every child the constructor was promised:
  /// numClasses() counts and W words of bits per child.
  std::vector<uint32_t> Counts;
  std::vector<uint64_t> Bits;
};

/// The merge phase's per-depth index of the children kept so far:
/// hash-consing (Filliâtre & Conchon, "Type-safe modular hash-consing",
/// 2006) — look a child up before allocating it. The open-addressed table
/// grows with the children kept, so a small depth pays for a handful of
/// slots. Single writer; not thread-safe.
class FrontierIndex {
public:
  explicit FrontierIndex(const Dataset &Base)
      : Base(&Base), Words((Base.numRows() + size_t(63)) / 64) {}

  /// Folds \p Step's children in emission order. Every child counts
  /// toward emitted() and emittedBytes() — what the resource caps charge,
  /// duplicates included — but only a child not yet kept at this depth is
  /// kept, as its packed record. A probe matches on hash and budget, then
  /// compares the child's bits with the kept child's, so a hash collision
  /// never drops a child.
  void merge(FrontierChildren &&Step);

  /// Keeps \p Child, built elsewhere (Box's `filter#` join), without
  /// hashing it: it must be the depth's only child. It counts toward
  /// emitted() and emittedBytes() at its own row capacity, which a join
  /// leaves above its size.
  void keep(AbstractDataset &&Child);

  /// Children merged or kept since the last takeSorted(), duplicates
  /// included.
  size_t emitted() const { return Emitted; }

  /// The sum of stateBytes() those children would charge as elements.
  uint64_t emittedBytes() const { return EmittedBytes; }

  /// Ends the depth: returns the kept children sorted by (budget, rows),
  /// rows compared lexicographically with a proper prefix first, each
  /// expanded into an element with its rows at exact capacity, and
  /// empties the index. The result equals `std::sort` + `std::unique`
  /// under that key over every merged child. The order is part of the
  /// learner's result, not a convenience: `DisjunctsCapped` joins
  /// *adjacent* disjuncts, and the next depth's emission order fixes the
  /// terminal order and the points where a refutation or budget stops the
  /// run.
  std::vector<AbstractDataset> takeSorted();

private:
  /// Resizes the table for at least \p MinKept children, at most half
  /// full, and reinserts the kept ones.
  void grow(size_t MinKept);

  const Dataset *Base;
  size_t Words; ///< Words in a row bitset over Base.
  /// Box's child, kept whole by keep().
  std::optional<AbstractDataset> Whole;
  /// The children merge() kept, in the order it kept them, as records:
  /// header, numClasses() counts and W words of bits each. The bits are in
  /// blocks of KeptBlock children, so takeSorted() can free them as it
  /// expands the children into elements.
  static constexpr size_t KeptBlock = 64;
  std::vector<FrontierChildren::Header> Kept;
  std::vector<uint32_t> KeptCounts;
  std::vector<std::vector<uint64_t>> KeptBits;
  const uint64_t *keptBits(size_t J) const {
    return KeptBits[J / KeptBlock].data() + J % KeptBlock * Words;
  }
  /// Open-addressed slots holding an index into Kept, or UINT32_MAX; at
  /// most half full.
  std::vector<uint32_t> Table;
  size_t Emitted = 0;
  uint64_t EmittedBytes = 0;
};

/// Runs DTrace#(⟨T,n⟩, x). \p Initial must be a non-empty abstract set over
/// `Ctx.base()`.
AbstractLearnerResult runAbstractDTrace(const SplitContext &Ctx,
                                        const AbstractDataset &Initial,
                                        const float *X,
                                        const AbstractLearnerConfig &Config);

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_ABSTRACTDTRACE_H
