// Sandbox task execution (paper §2.2, Figure 4).
//
// Every task runs in a private sandbox directory: inputs are linked in
// under their user-visible names, the command (or registered function)
// runs with the sandbox as its working directory, declared outputs are
// harvested into the cache, and the sandbox is deleted. Command tasks run
// as real child processes (/bin/sh -c, launched with posix_spawn) with
// wall-time, disk and memory enforcement; function tasks invoke a
// registered callable in-process.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "proto/messages.hpp"
#include "worker/cache_store.hpp"

namespace vine {

/// Outcome of one sandbox execution.
struct ExecOutcome {
  bool ok = false;
  bool resource_exceeded = false;  ///< killed for exceeding its allocation
  int exit_code = -1;
  std::string output;  ///< captured stdout (truncated) or function result
  std::string error;   ///< failure description
  std::vector<proto::OutputRecord> outputs;  ///< harvested into the cache
};

struct ExecutorConfig {
  std::filesystem::path sandbox_root;  ///< parent of per-task sandboxes
  std::string worker_id;
  std::size_t max_captured_output = 1 << 20;  ///< stdout capture cap (1 MiB)
  /// Interval at which the watchdog checks the wall-time, disk and memory
  /// limits of running commands. Reaping never waits for it.
  double disk_poll_seconds = 0.1;
};

/// Executes wire tasks against a cache store. Thread-safe: each execute()
/// call is independent and may run on its own thread.
class Executor {
 public:
  Executor(ExecutorConfig config, CacheStore& cache);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run a command/function task to completion (blocking). Outputs are
  /// placed into the cache under their cache names at the mount's level.
  ExecOutcome execute(const proto::WireTask& task);

  /// Prepare a sandbox with all inputs linked in; exposed for the library
  /// machinery which owns its instance's sandbox for its whole life.
  Result<std::filesystem::path> make_sandbox(const proto::WireTask& task);

  /// Harvest declared outputs from a sandbox into the cache.
  Status harvest_outputs(const proto::WireTask& task,
                         const std::filesystem::path& sandbox,
                         std::vector<proto::OutputRecord>& outputs);

 private:
  ExecOutcome run_command(const proto::WireTask& task,
                          const std::filesystem::path& sandbox);
  ExecOutcome run_function(const proto::WireTask& task,
                           const std::filesystem::path& sandbox);

  /// The limit a watched command was killed for.
  enum class Limit { none, wall_time, disk, memory };

  /// A running command with a wall-time, disk or memory limit.
  struct Watched {
    pid_t pid = -1;
    /// Wall-time deadline; time_point::max() when the task sets none.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::int64_t disk_bytes = 0;    ///< 0 = no disk limit
    std::int64_t memory_bytes = 0;  ///< 0 = no memory limit
    std::filesystem::path sandbox;
    Limit exceeded = Limit::none;  ///< set by the watchdog when it kills
  };

  /// Put a spawned command under the watchdog, starting the watchdog when
  /// it is not running. Returns the id unwatch() takes.
  std::uint64_t watch(Watched w);
  /// Take a command off the watchdog once it has exited (and before it is
  /// reaped, so a kill can never reach a recycled pid); returns the limit
  /// it was killed for.
  Limit unwatch(std::uint64_t id);
  /// Checks every watched command each disk_poll_seconds; exits when none
  /// remain.
  void watchdog_main();

  ExecutorConfig config_;
  CacheStore& cache_;

  // Guards watched_, next_watch_id_, watchdog_running_ and watchdog_;
  // watch_cv_ wakes the watchdog when the last command leaves.
  Mutex watch_mutex_{lock_rank::Rank::executor_watch};
  CondVar watch_cv_;
  std::map<std::uint64_t, Watched> watched_ VINE_GUARDED_BY(watch_mutex_);
  std::uint64_t next_watch_id_ VINE_GUARDED_BY(watch_mutex_) = 1;
  bool watchdog_running_ VINE_GUARDED_BY(watch_mutex_) = false;
  std::thread watchdog_ VINE_GUARDED_BY(watch_mutex_);
};

}  // namespace vine
