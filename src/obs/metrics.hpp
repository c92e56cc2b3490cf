// MetricsRegistry — cheap monotonic counters/gauges feeding the trace.
//
// Two kinds of entries:
//   * owned counters: lock-free atomics created on demand via counter();
//     emitters bump them on hot paths without touching the registry lock.
//   * exposed gauges: borrowed `const std::int64_t*` pointers into existing
//     stats structs (ManagerStats, SimStats fields), registered once via
//     expose(). The registry does not own or synchronize these — they must
//     be read from the thread that owns the stats struct (the manager
//     application thread / the sim loop), which is where snapshot() is
//     called at quiescent points.
//
// snapshot() merges both into one name->value map; callers emit it as a
// `counters` trace event (Event::make_counters), which is how the trace and
// ManagerStats-style structs stay derived from the same numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.hpp"

namespace vine::obs {

/// One owned monotonic counter. Pointer-stable for the registry's lifetime.
class Counter {
 public:
  void add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void inc() { add(1); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class MetricsRegistry {
 public:
  /// Get-or-create an owned counter. The returned pointer stays valid for
  /// the registry's lifetime. Thread-safe.
  Counter* counter(const std::string& name);

  /// Register a borrowed gauge read at snapshot time. `source` must outlive
  /// the registry (or be removed via unexpose). Re-exposing a name replaces
  /// the previous pointer.
  void expose(const std::string& name, const std::int64_t* source);
  void unexpose(const std::string& name);

  /// Register a computed gauge: `fn` is invoked at snapshot time. For
  /// sources without a stable int64 address (the reactor's atomic
  /// counters). Must be callable until unexposed and must not acquire locks
  /// ranked at or below `metrics`.
  void expose_fn(const std::string& name, std::function<std::int64_t()> fn);

  /// Merged view: owned counters plus every exposed gauge's current value.
  /// Exposed sources are read unsynchronized — call at quiescent points
  /// from the thread owning them.
  std::map<std::string, std::int64_t> snapshot() const;

 private:
  mutable Mutex mu_{lock_rank::Rank::metrics};  // guards counters_ and exposed_ (the maps, not the values)
  std::map<std::string, std::unique_ptr<Counter>> counters_ VINE_GUARDED_BY(mu_);
  std::map<std::string, const std::int64_t*> exposed_ VINE_GUARDED_BY(mu_);
  std::map<std::string, std::function<std::int64_t()>> exposed_fns_
      VINE_GUARDED_BY(mu_);
};

}  // namespace vine::obs
