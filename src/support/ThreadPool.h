//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for the embarrassingly parallel parts of the
/// §6 experiment protocol (per-instance verification fan-out).
///
/// Three layers:
///  - `ThreadPool` — N workers draining a shared FIFO of opaque tasks.
///  - `parallelFor` — the scheduling idiom batch callers use: items are
///    claimed one at a time from a shared atomic cursor (self-
///    scheduling, the work-stealing-friendly discipline: an idle worker
///    always takes the globally next unclaimed item, so imbalanced item
///    costs never strand work behind a slow thread), with the calling
///    thread participating as the (N+1)-th worker. The call returns only
///    once every item has finished, and item indices are handed out in
///    order, so callers can aggregate results deterministically by index
///    regardless of thread count.
///  - `OrderedFanout` — the work-chunk discipline behind the frontier-
///    parallel `DTrace#` (abstract/AbstractDTrace.cpp): workers claim
///    contiguous *chunks* of item indices and compute them out of order
///    while the calling thread consumes results strictly in index order,
///    computing any item the workers have not claimed yet inline. The
///    consumer can cancel the not-yet-claimed remainder cooperatively
///    (workers poll a relaxed skip flag once per chunk), which is how a
///    refuted/over-budget frontier merge stops paying for disjuncts it
///    will never fold in.
///
/// Fan-outs share a pool: one query's DTrace# fans out onto the same
/// pool once per depth level. The destructor only waits for helper tasks
/// that have *started*, never for ones still queued — a finished depth's
/// queued helper that runs during the next depth's fan-out exits without
/// touching the caller's stack. Without this, every fan-out would end by
/// waiting for its queued helpers to reach a worker just to exit.
///
/// Tasks must not throw; the verifier reports failures through
/// `Certificate`/`BudgetOutcome` values, never exceptions.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SUPPORT_THREADPOOL_H
#define ANTIDOTE_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace antidote {

/// A fixed-size pool of worker threads draining a shared task queue.
class ThreadPool {
public:
  /// Spawns \p NumWorkers workers (0 is allowed and makes `submit`
  /// illegal; `parallelFor` degrades to the serial path).
  explicit ThreadPool(unsigned NumWorkers);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task for execution on some worker. Tasks needing
  /// completion tracking bring their own latch (as `parallelFor` does).
  void submit(std::function<void()> Task);

  /// The machine's hardware thread count (at least 1).
  static unsigned hardwareConcurrency();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable; ///< Signalled on submit/stop.
  bool Stopping = false;
};

/// Runs `Body(0) ... Body(Count-1)` across \p Pool plus the calling thread,
/// returning once all have finished. Items are claimed from a shared atomic
/// cursor. With a null/empty pool (or fewer than two items) this is a plain
/// serial loop, so callers need no separate serial code path.
void parallelFor(ThreadPool *Pool, size_t Count,
                 const std::function<void(size_t)> &Body);

/// Computes `Body(0) ... Body(Count-1)` on \p Pool's workers while the
/// constructing thread consumes the results in index order via
/// `awaitItem(0..Count-1)`.
///
/// Workers claim contiguous chunks of up to \p ChunkSize indices from a
/// shared cursor (one cursor bump per chunk keeps contention negligible
/// even for very fine-grained items) and then claim each index in the
/// chunk individually, so the consumer can *also* compute an item inline
/// when it catches up with the workers — with a null/empty pool this
/// degrades to a plain serial loop in which `awaitItem(I)` simply runs
/// `Body(I)`, so callers need no separate serial code path.
///
/// `Body(I)` must publish item I's result into caller-owned storage (for
/// example a pre-sized results vector slot — writes are unique per index,
/// the claim handshake orders them before the consumer's read) and must
/// not throw. The consumer may stop early: `cancelRemaining()` asks the
/// workers to skip everything not yet claimed; it is checked once per
/// chunk, so at most one in-flight chunk per worker still completes. The
/// destructor cancels the remainder and blocks until every worker has
/// left, so `Body` may safely capture the caller's stack.
///
/// While the consumer waits for a worker-claimed item it helps forward —
/// claiming and computing later unclaimed items — so its core is never
/// wasted on a pure spin while work remains.
///
/// \p WindowChunks (0 = unbounded) caps how many chunks past the chunk
/// containing the last awaited item may be claimed, bounding how much
/// not-yet-consumed output can pile up. The frontier learner uses this
/// so a run that a budget cap would stop mid-merge cannot first
/// materialize the whole next frontier in memory: run-ahead is limited
/// to the window, and workers at the horizon sleep until the consumer
/// catches up (or cancels).
class OrderedFanout {
public:
  /// Starts the fan-out. A \p ChunkSize of 0 picks a default that spreads
  /// \p Count over the executors a few chunks deep.
  OrderedFanout(ThreadPool *Pool, size_t Count, size_t ChunkSize,
                std::function<void(size_t)> Body, size_t WindowChunks = 0);

  /// Cancels the unclaimed remainder, then waits until no helper task is
  /// still *executing* Body. Helper tasks still queued on the pool are
  /// not waited for — once they eventually run they observe the teardown
  /// and exit without touching Body — so tearing down never waits on
  /// work other fan-outs queued on a shared pool.
  ~OrderedFanout();

  OrderedFanout(const OrderedFanout &) = delete;
  OrderedFanout &operator=(const OrderedFanout &) = delete;

  /// Blocks until item \p I's Body has finished, running it inline when no
  /// worker has claimed it yet. Items must be awaited in ascending order
  /// (each at most once); callers stopping early just stop awaiting.
  void awaitItem(size_t I);

  /// Tells the workers to skip every item not yet claimed. Idempotent.
  /// Already-awaited items are unaffected; do not await further items.
  void cancelRemaining();

private:
  struct State;
  std::shared_ptr<State> S;
};

/// The one policy for turning a user-facing Jobs knob into an executor
/// count: 0 means one executor per hardware thread, and requests are
/// clamped to 16x the hardware threads (guarding against wrapped/absurd
/// values).
unsigned resolveJobs(unsigned Jobs);

/// A pool for `resolveJobs(Jobs)` executors: Jobs-1 workers, because the
/// calling thread participates in `parallelFor`. Returns null when that
/// resolves to 1 (strictly serial).
std::unique_ptr<ThreadPool> makeVerificationPool(unsigned Jobs);

} // namespace antidote

#endif // ANTIDOTE_SUPPORT_THREADPOOL_H
