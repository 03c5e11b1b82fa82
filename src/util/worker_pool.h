#ifndef INSTANTDB_UTIL_WORKER_POOL_H_
#define INSTANTDB_UTIL_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace instantdb {

/// \brief Lazily-started shared worker pool: the engine's only source of
/// worker threads. Scans, aggregate drains, degradation passes,
/// checkpoints, audit sweeps, WAL recovery and index rebuilds all borrow
/// these threads instead of spawning (and joining) their own — thread
/// create/join is tens of microseconds per worker, which used to be paid
/// per query. The only other threads are the degrader's and the
/// maintenance daemon's long-lived coordinators.
///
/// The pool never over-commits: TryDispatch hands out at most as many tasks
/// as there are workers NOT currently running one (a free-worker token
/// count), so every accepted task is picked up promptly even when other
/// tasks block indefinitely (a streaming scan's helpers parked on a full
/// prefetch queue hold their tokens; the next dispatch simply sees fewer
/// free workers). Every borrower therefore runs its own share of the work
/// on the calling thread and treats borrowed workers as helpers: a
/// saturated pool slows it down but never stalls or deadlocks it.
///
/// Threads start on first use and park on a condition variable between
/// tasks; an idle pool costs nothing until then.
class WorkerPool {
 public:
  /// `size` threads once started (at least 1).
  explicit WorkerPool(size_t size);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t size() const { return size_; }

  /// Handle for one TryDispatch: Wait() blocks until every accepted task
  /// finished. Must be waited before the state captured by `fn` dies.
  class Ticket {
   public:
    Ticket() = default;

   private:
    friend class WorkerPool;
    struct State {
      std::mutex mu;
      std::condition_variable cv;
      size_t active = 0;
    };
    std::shared_ptr<State> state_;
  };

  /// Borrows up to `want` currently-free pool workers and runs `fn(slot)`
  /// on each (slot in [0, returned)). Returns how many were borrowed —
  /// possibly 0 when the pool is saturated; the caller runs the shortfall
  /// itself. Never blocks.
  ///
  /// `priority` selects the token pool: normal dispatches (the default)
  /// never take the last `reserved()` free tokens, priority dispatches may
  /// take every free token. Priority is for the degradation engine (and
  /// anything else privacy-critical): because only priority callers can
  /// touch the reserve, a tight normal-dispatch loop — one session
  /// re-borrowing tokens the instant they free — can never re-acquire them
  /// first, which closes the starvation race where a parked degrader lost
  /// every freed token to faster foreground dispatchers. A priority caller
  /// is therefore guaranteed min(want, reserved()) tokens whenever its own
  /// kind isn't already holding them.
  size_t TryDispatch(size_t want, std::function<void(size_t)> fn,
                     Ticket* ticket, bool priority = false);

  /// Blocks until every task of `ticket` finished. Idempotent; a
  /// default-constructed or already-waited ticket returns immediately.
  void Wait(Ticket* ticket);

  /// Parallel for-loop on the pool: runs `fn(0) .. fn(count - 1)` from an
  /// atomic cursor with the CALLER always participating, helped by however
  /// many pool workers are free right now (at most `workers - 1`; priority
  /// as in TryDispatch). Progress is therefore guaranteed even when the
  /// pool is saturated or `Run` is called from a pool worker — it degrades
  /// to inline, never deadlocks. Returns the first non-OK status; the
  /// failing participant stops claiming, the others drain what they
  /// already started.
  Status Run(size_t workers, size_t count,
             const std::function<Status(size_t)>& fn, bool priority = false);

  /// Reserves `n` tokens (clamped to the pool size) for priority
  /// dispatches; normal TryDispatch sees a pool smaller by that many. 0
  /// (the default) disables the reserve. Safe to call any time; tokens
  /// already handed out are unaffected.
  void SetReserved(size_t n);
  size_t reserved() const;

  /// Free-worker tokens right now (dispatch-order snapshot). A pool that
  /// was never started reports its full size — nothing has borrowed from
  /// it. Tests use this to prove a failed scan leaked no tokens; the
  /// service's PressureState reads it as the saturation signal.
  size_t free_workers() const;

  /// Priority dispatches that took tokens a concurrent normal dispatch was
  /// refused (i.e. dipped into the reserve): the
  /// `degradation_reserved_dispatches` service counter.
  uint64_t reserved_grants() const;

 private:
  void EnsureStartedLocked();
  void WorkerLoop();

  const size_t size_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  /// Workers not currently running a task. Decremented at dispatch time
  /// (task count never exceeds free workers), re-incremented by the worker
  /// when its task completes.
  size_t free_ = 0;
  /// Tokens only priority dispatches may take (SetReserved).
  size_t reserved_ = 0;
  /// Priority dispatches that dipped into the reserve (free_ at or below
  /// reserved_ when they took tokens).
  uint64_t reserved_grants_ = 0;
  bool started_ = false;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_WORKER_POOL_H_
