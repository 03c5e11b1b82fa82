#include "util/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace instantdb {

WorkerPool::WorkerPool(size_t size) : size_(std::max<size_t>(size, 1)) {}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void WorkerPool::EnsureStartedLocked() {
  if (started_) return;
  started_ = true;
  free_ = size_;
  threads_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // stop_ set and nothing left to drain
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

size_t WorkerPool::TryDispatch(size_t want, std::function<void(size_t)> fn,
                               Ticket* ticket, bool priority) {
  if (want == 0) return 0;
  auto state = std::make_shared<Ticket::State>();
  size_t take = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureStartedLocked();
    // Normal dispatches see a pool shrunk by the reserve; only priority
    // callers (the degrader) may take the last `reserved_` tokens, so no
    // foreground dispatch loop can ever re-acquire them first.
    const size_t visible =
        priority ? free_ : (free_ > reserved_ ? free_ - reserved_ : 0);
    take = std::min(want, visible);
    if (take == 0) return 0;
    if (priority && free_ - take < reserved_) ++reserved_grants_;
    // Tokens come off BEFORE the tasks are visible: a concurrent dispatch
    // can never promise the same free worker twice, which is the
    // no-over-commit invariant everything above relies on.
    free_ -= take;
    state->active = take;
    auto shared_fn = std::make_shared<std::function<void(size_t)>>(
        std::move(fn));
    for (size_t slot = 0; slot < take; ++slot) {
      // The token goes back BEFORE the ticket is signalled, so after
      // Wait() returns every borrowed worker is free again — tests assert
      // free_workers() == size to prove error paths leak nothing.
      tasks_.emplace_back([this, shared_fn, slot, state] {
        (*shared_fn)(slot);
        {
          std::lock_guard<std::mutex> returned(mu_);
          ++free_;
        }
        {
          std::lock_guard<std::mutex> done(state->mu);
          --state->active;
        }
        state->cv.notify_all();
      });
    }
  }
  cv_.notify_all();
  ticket->state_ = std::move(state);
  return take;
}

void WorkerPool::SetReserved(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_ = std::min(n, size_);
}

size_t WorkerPool::reserved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

size_t WorkerPool::free_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ ? free_ : size_;
}

uint64_t WorkerPool::reserved_grants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_grants_;
}

void WorkerPool::Wait(Ticket* ticket) {
  if (ticket == nullptr || ticket->state_ == nullptr) return;
  std::shared_ptr<Ticket::State> state = std::move(ticket->state_);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->active == 0; });
}

Status WorkerPool::Run(size_t workers, size_t count,
                       const std::function<Status(size_t)>& fn,
                       bool priority) {
  workers = std::min(std::max<size_t>(workers, 1), count);
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) IDB_RETURN_IF_ERROR(fn(i));
    return Status::OK();
  }
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  Status error;
  auto drain = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const Status status = fn(i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (error.ok()) error = status;
        return;
      }
    }
  };
  Ticket ticket;
  TryDispatch(workers - 1, [&](size_t) { drain(); }, &ticket, priority);
  drain();
  Wait(&ticket);
  return error;
}

}  // namespace instantdb
