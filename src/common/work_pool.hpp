// A lazily grown thread pool.
//
// A job goes to an idle thread; a new thread starts only when every thread
// is busy and the pool is below its cap. Threads never time out: an idle
// one waits on a condition variable until a job or close() arrives. A pool
// that never receives a job therefore holds no thread at all, and an
// uncapped pool never holds more threads than the peak number of jobs it
// ran at once — the caller's own admission (the manager's resource
// accounting, a transfer limit) is what bounds it.
//
// Concurrency: mutex_ ranks work_pool, just outside msg_queue, because
// submit() is called from transport receivers that run under an endpoint's
// delivery lock. Jobs run with no pool lock held.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace vine {

class WorkPool {
 public:
  /// `max_threads` caps the pool; 0 means no cap.
  explicit WorkPool(std::size_t max_threads = 0) : max_threads_(max_threads) {}
  ~WorkPool() { close(); }

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  /// Queue `job`. Returns false, dropping the job, once close() has begun.
  bool submit(std::function<void()> job);

  /// Stop accepting jobs, let the threads finish every job already queued,
  /// then join them. Idempotent; must not be called from a pool thread.
  void close();

  /// Threads started so far (they stay until close()).
  std::size_t threads() const;

 private:
  void thread_main();

  const std::size_t max_threads_;
  // Guards jobs_, threads_, idle_ and closed_; cv_ is signalled under it.
  mutable Mutex mutex_{lock_rank::Rank::work_pool};
  CondVar cv_;
  std::deque<std::function<void()>> jobs_ VINE_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_ VINE_GUARDED_BY(mutex_);
  std::size_t idle_ VINE_GUARDED_BY(mutex_) = 0;  ///< threads waiting in cv_
  bool closed_ VINE_GUARDED_BY(mutex_) = false;
};

}  // namespace vine
