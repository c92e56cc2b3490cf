// Thread-safe message queue with blocking/timeout pop. The manager and each
// worker own one inbox; transport receiver callbacks and executor/transfer
// threads push events into it, and a single consumer thread drains it — the
// concurrency pattern used throughout the real runtime (message passing, no
// shared mutable state).
//
// Concurrency: mutex_ ranks msg_queue — the innermost data lock — so no
// other vine lock may be acquired while holding it, and pop() (which blocks
// in a condvar wait) must never be called with any vine lock held
// (vine_analyze reports that as lock-held-across-blocking-call).
#pragma once

#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "common/mutex.hpp"

namespace vine {

template <typename T>
class MsgQueue {
 public:
  /// Push an item and wake one waiter. Returns false if the queue is closed.
  bool push(T item) {
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Pop, waiting up to `timeout`. nullopt on timeout or when the queue is
  /// closed and drained.
  std::optional<T> pop(std::chrono::milliseconds timeout) {
    // Wait against an absolute deadline so spurious wakeups (and notify
    // storms from concurrent pushes) re-arm with the remaining time instead
    // of restarting the full timeout.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    UniqueLock lock(mutex_);
    while (items_.empty() && !closed_) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Pop, waiting with no timeout. nullopt only when the queue is closed
  /// and drained.
  std::optional<T> pop() {
    UniqueLock lock(mutex_);
    while (items_.empty() && !closed_) cv_.wait(lock);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Close the queue: pushes fail, waiters wake. Items already queued can
  /// still be popped.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  // Guards items_ and closed_; cv_ is signalled under it on push/close.
  mutable Mutex mutex_{lock_rank::Rank::msg_queue};
  CondVar cv_;
  std::deque<T> items_ VINE_GUARDED_BY(mutex_);
  bool closed_ VINE_GUARDED_BY(mutex_) = false;
};

}  // namespace vine
