#include "common/work_pool.hpp"

namespace vine {

bool WorkPool::submit(std::function<void()> job) {
  MutexLock lock(mutex_);
  if (closed_) return false;
  jobs_.push_back(std::move(job));
  // Every idle thread takes one queued job; start a thread only for a job
  // no idle thread is left to take.
  if (jobs_.size() <= idle_) {
    cv_.notify_one();
  } else if (max_threads_ == 0 || threads_.size() < max_threads_) {
    threads_.emplace_back([this] { thread_main(); });
  }
  return true;
}

void WorkPool::close() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mutex_);
    closed_ = true;
    to_join.swap(threads_);
  }
  cv_.notify_all();
  for (auto& t : to_join) t.join();
}

std::size_t WorkPool::threads() const {
  MutexLock lock(mutex_);
  return threads_.size();
}

void WorkPool::thread_main() {
  for (;;) {
    std::function<void()> job;
    {
      UniqueLock lock(mutex_);
      while (jobs_.empty() && !closed_) {
        ++idle_;
        cv_.wait(lock);
        --idle_;
      }
      if (jobs_.empty()) return;  // closed and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

}  // namespace vine
