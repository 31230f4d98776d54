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
/// on its executor and packs its children into one buffer
/// (`FrontierChildren`) straight from restrict#'s kernel, hashing each
/// while its rows are still in cache; no element is built for them there.
///
/// Tied predicates often induce the same restriction, so about half of a
/// depth's children are copies. The merge drops them as it meets them
/// (`FrontierIndex`): it probes a per-depth index of the children already
/// kept and copies out an element only for a child it has not seen, so no
/// duplicate is ever allocated. The resource caps still count every
/// emitted child, duplicates included, at the bytes the element would
/// charge, so abort points do not depend on how many children repeat.
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

/// The children one transfer step emits, packed into one buffer rather
/// than one element each: per child its per-class counts, then its rows,
/// plus a header with the child's hash, size, budget and the row capacity
/// it charges. One executor fills it in the transfer phase; the merge
/// consumes it through a `FrontierIndex`.
///
/// The buffer is a list of blocks, and a child never straddles two. The
/// merge frees each block as soon as it has passed it, so a step's packed
/// children and the elements kept from them are never all alive at once:
/// on a step as large as the root's, where few children repeat, that
/// would hold the step twice.
class FrontierChildren {
public:
  /// Appends `Parent.restrict(Pred, Positive)` without building it:
  /// restrict#'s kernel writes the rows and counts straight into the
  /// buffer, and the child is hashed right after, while its rows are
  /// still in cache.
  void addRestriction(const AbstractDataset &Parent,
                      const SplitPredicate &Pred, bool Positive);

  /// Appends a copy of a child built elsewhere (Box's `filter#` join),
  /// charged at its own row capacity.
  void add(const AbstractDataset &Child);

  size_t size() const { return Headers.size(); }

private:
  friend class FrontierIndex;

  struct Header {
    uint64_t Hash;
    uint32_t Block;  ///< Index into Blocks.
    uint32_t Offset; ///< Counts at Blocks[Block][Offset], the rows after.
    uint32_t Size;
    uint32_t Budget;
    uint32_t RowCapacity;
  };

  /// The block with room for \p Words more words past its end, opening a
  /// new one when the last has too little.
  std::vector<uint32_t> &room(size_t Words);

  std::vector<Header> Headers;
  std::vector<std::vector<uint32_t>> Blocks;
};

/// The merge phase's per-depth index of the children kept so far:
/// hash-consing (Filliâtre & Conchon, "Type-safe modular hash-consing",
/// 2006) — look a child up before allocating it. The open-addressed table
/// grows with the children kept, so a one-disjunct depth (every Box depth)
/// pays for a handful of slots. Single writer; not thread-safe.
class FrontierIndex {
public:
  explicit FrontierIndex(const Dataset &Base) : Base(&Base) {}

  /// Folds \p Step's children in emission order, freeing its blocks as
  /// it passes them. Every child counts toward emitted() and
  /// emittedBytes() — what the resource caps charge, duplicates included
  /// — but only a child not yet kept at this depth is copied out, into an
  /// element at the row capacity its header names. A probe matches on
  /// hash, size and budget, then compares the rows in full, so a hash
  /// collision never drops a child.
  void merge(FrontierChildren &&Step);

  /// Children merged since the last takeSorted(), duplicates included.
  size_t emitted() const { return Emitted; }

  /// The sum of stateBytes() those children would charge as elements.
  uint64_t emittedBytes() const { return EmittedBytes; }

  /// Ends the depth: returns the kept children sorted by (budget, rows),
  /// rows compared lexicographically with a proper prefix first, and
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
  std::vector<AbstractDataset> Kept;
  std::vector<uint64_t> KeptHashes;
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
