#include "worker/executor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

extern char** environ;  // POSIX guarantees it; no header is required to declare it

#include "common/log.hpp"
#include "common/uuid.hpp"
#include "fsutil/fsutil.hpp"
#include "task/registry.hpp"

namespace vine {

namespace fs = std::filesystem;

namespace {

/// Resident set size of a process in bytes via /proc (Linux); 0 if unknown.
std::int64_t process_rss_bytes(pid_t pid) {
  std::ifstream statm("/proc/" + std::to_string(pid) + "/statm");
  if (!statm) return 0;
  long long size_pages = 0, rss_pages = 0;
  statm >> size_pages >> rss_pages;
  return rss_pages * static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
}

/// Owns a posix_spawn file-actions list.
struct SpawnActions {
  posix_spawn_file_actions_t fa;
  SpawnActions() { ::posix_spawn_file_actions_init(&fa); }
  ~SpawnActions() { ::posix_spawn_file_actions_destroy(&fa); }
  SpawnActions(const SpawnActions&) = delete;
  SpawnActions& operator=(const SpawnActions&) = delete;
};

/// Owns a posix_spawn attribute set.
struct SpawnAttr {
  posix_spawnattr_t attr;
  SpawnAttr() { ::posix_spawnattr_init(&attr); }
  ~SpawnAttr() { ::posix_spawnattr_destroy(&attr); }
  SpawnAttr(const SpawnAttr&) = delete;
  SpawnAttr& operator=(const SpawnAttr&) = delete;
};

}  // namespace

Executor::Executor(ExecutorConfig config, CacheStore& cache)
    : config_(std::move(config)), cache_(cache) {
  std::error_code ec;
  fs::create_directories(config_.sandbox_root, ec);
}

Executor::~Executor() {
  // No command runs any more, so the watchdog has exited or is exiting.
  std::thread watchdog;
  {
    MutexLock lock(watch_mutex_);
    watchdog = std::move(watchdog_);
  }
  if (watchdog.joinable()) watchdog.join();
}

std::uint64_t Executor::watch(Watched w) {
  std::thread finished;
  std::uint64_t id = 0;
  {
    MutexLock lock(watch_mutex_);
    id = next_watch_id_++;
    watched_.emplace(id, std::move(w));
    if (!watchdog_running_) {
      watchdog_running_ = true;
      // A previous watchdog ran out of commands and returned; join it
      // outside the lock.
      finished = std::move(watchdog_);
      watchdog_ = std::thread([this] { watchdog_main(); });
    }
  }
  if (finished.joinable()) finished.join();
  return id;
}

Executor::Limit Executor::unwatch(std::uint64_t id) {
  MutexLock lock(watch_mutex_);
  auto it = watched_.find(id);
  if (it == watched_.end()) return Limit::none;
  const Limit exceeded = it->second.exceeded;
  watched_.erase(it);
  if (watched_.empty()) watch_cv_.notify_all();
  return exceeded;
}

void Executor::watchdog_main() {
  const auto interval = std::chrono::duration<double>(config_.disk_poll_seconds);
  for (;;) {
    std::vector<std::pair<std::uint64_t, Watched>> probes;
    {
      UniqueLock lock(watch_mutex_);
      if (!watched_.empty()) watch_cv_.wait_for(lock, interval);
      if (watched_.empty()) {
        watchdog_running_ = false;
        return;
      }
      probes.assign(watched_.begin(), watched_.end());
    }
    // Measure outside the lock: disk walks and /proc reads take time, and
    // the commands' own threads need the lock to leave.
    const auto now = std::chrono::steady_clock::now();
    for (auto& [_, w] : probes) {
      if (now >= w.deadline) {
        w.exceeded = Limit::wall_time;
        continue;
      }
      if (w.disk_bytes > 0) {
        auto used = tree_size(w.sandbox);
        if (used.ok() && *used > w.disk_bytes) {
          w.exceeded = Limit::disk;
          continue;
        }
      }
      // Memory enforcement samples the command shell's RSS (full-tree
      // accounting would need cgroups; the shell holds most workflows'
      // footprint since $(...) expansions live in it).
      if (w.memory_bytes > 0 && process_rss_bytes(w.pid) > w.memory_bytes) {
        w.exceeded = Limit::memory;
      }
    }
    // Kill the command's whole process group, under the lock: a shell
    // still in watched_ has not been reaped, so its pid — which is also
    // the group's id — cannot have been recycled.
    MutexLock lock(watch_mutex_);
    for (const auto& [id, probe] : probes) {
      if (probe.exceeded == Limit::none) continue;
      auto it = watched_.find(id);
      if (it == watched_.end() || it->second.exceeded != Limit::none) continue;
      it->second.exceeded = probe.exceeded;
      ::kill(-it->second.pid, SIGKILL);
    }
  }
}

Result<fs::path> Executor::make_sandbox(const proto::WireTask& task) {
  fs::path sandbox = config_.sandbox_root /
                     ("t" + std::to_string(task.id) + "-" + generate_token(6));
  std::error_code ec;
  fs::create_directories(sandbox, ec);
  if (ec) {
    return Error{Errc::io_error, "cannot create sandbox: " + sandbox.string()};
  }
  for (const auto& in : task.inputs) {
    auto obj = cache_.object_path(in.cache_name);
    if (!obj.ok()) {
      remove_all_quiet(sandbox);
      return Error{Errc::not_found, "input not cached at worker: " + in.cache_name +
                                        " (as " + in.sandbox_name + ")"};
    }
    auto link = link_into_sandbox(*obj, sandbox / in.sandbox_name);
    if (!link.ok()) {
      remove_all_quiet(sandbox);
      return link.error();
    }
  }
  return sandbox;
}

Status Executor::harvest_outputs(const proto::WireTask& task, const fs::path& sandbox,
                                 std::vector<proto::OutputRecord>& outputs) {
  for (const auto& out : task.outputs) {
    fs::path produced = sandbox / out.sandbox_name;
    std::error_code ec;
    if (!fs::exists(produced, ec)) {
      return Error{Errc::task_failed,
                   "declared output missing: " + out.sandbox_name};
    }
    VINE_TRY_STATUS(cache_.adopt(out.cache_name, produced, out.level));
    auto e = cache_.entry(out.cache_name);
    outputs.push_back({out.cache_name, e.ok() ? e->size : 0});
  }
  return Status::success();
}

ExecOutcome Executor::execute(const proto::WireTask& task) {
  ExecOutcome outcome;
  auto sandbox = make_sandbox(task);
  if (!sandbox.ok()) {
    outcome.error = sandbox.error().to_string();
    return outcome;
  }

  switch (task.kind) {
    case TaskKind::command:
      outcome = run_command(task, *sandbox);
      break;
    case TaskKind::mini:
      // Mini-tasks run a command like plain tasks, or a registered
      // function for the built-in wrappers (vine.unpack and friends).
      outcome = task.function_name.empty() ? run_command(task, *sandbox)
                                           : run_function(task, *sandbox);
      break;
    case TaskKind::function:
      outcome = run_function(task, *sandbox);
      break;
    default:
      outcome.error = "executor cannot run task kind " +
                      std::string(task_kind_name(task.kind));
      break;
  }

  if (outcome.ok) {
    auto h = harvest_outputs(task, *sandbox, outcome.outputs);
    if (!h.ok()) {
      outcome.ok = false;
      outcome.error = h.error().to_string();
    }
  }
  remove_all_quiet(*sandbox);
  return outcome;
}

ExecOutcome Executor::run_command(const proto::WireTask& task, const fs::path& sandbox) {
  ExecOutcome outcome;
  fs::path stdout_path = sandbox / ".vine-stdout";

  // Build the child's environment and argv before spawning: the child
  // gets them as they are, with nothing left to compute after the clone.
  std::map<std::string, std::string> env;
  for (char** e = environ; e && *e; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (eq) env[std::string(*e, static_cast<std::size_t>(eq - *e))] = eq + 1;
  }
  for (const auto& [k, v] : task.env) env[k] = v;
  env["VINE_SANDBOX"] = sandbox.string();
  std::vector<std::string> env_strings;
  env_strings.reserve(env.size());
  for (const auto& [k, v] : env) env_strings.push_back(k + "=" + v);
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (auto& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  const char* argv[] = {"sh", "-c", task.command.c_str(), nullptr};

  // posix_spawn, not fork(): the worker is multithreaded, and fork() would
  // copy its whole page table for a child that only execs /bin/sh. The
  // child leads a new process group, so a limit kill reaches everything
  // the command starts; it enters the sandbox and writes stdout to the
  // capture file.
  SpawnAttr attr;
  SpawnActions actions;
  int rc = ::posix_spawnattr_setflags(&attr.attr, POSIX_SPAWN_SETPGROUP);
  if (rc == 0) rc = ::posix_spawnattr_setpgroup(&attr.attr, 0);
  if (rc == 0) {
    rc = ::posix_spawn_file_actions_addchdir_np(&actions.fa, sandbox.c_str());
  }
  if (rc == 0) {
    rc = ::posix_spawn_file_actions_addopen(&actions.fa, STDOUT_FILENO,
                                            stdout_path.c_str(),
                                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  pid_t pid = -1;
  if (rc == 0) {
    rc = ::posix_spawn(&pid, "/bin/sh", &actions.fa, &attr.attr,
                       const_cast<char* const*>(argv), envp.data());
  }
  if (rc != 0) {
    outcome.error = std::string("spawn failed: ") + std::strerror(rc);
    return outcome;
  }

  // A command with a limit goes under the watchdog; either way this thread
  // blocks until the child exits, so reaping never waits for a check.
  const bool limited = task.timeout_seconds > 0 || task.resources.disk_mb > 0 ||
                       task.resources.memory_mb > 0;
  Limit exceeded = Limit::none;
  if (limited) {
    Watched w;
    w.pid = pid;
    if (task.timeout_seconds > 0) {
      w.deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(task.timeout_seconds));
    }
    w.disk_bytes = task.resources.disk_mb * 1000 * 1000;
    w.memory_bytes = task.resources.memory_mb * 1000 * 1000;
    w.sandbox = sandbox;
    const std::uint64_t id = watch(std::move(w));
    // Wait for the exit without reaping: the zombie keeps its pid until
    // unwatch() has taken it off the watchdog.
    siginfo_t info{};
    while (::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) != 0 &&
           errno == EINTR) {
    }
    exceeded = unwatch(id);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      outcome.error = std::string("waitpid failed: ") + std::strerror(errno);
      return outcome;
    }
  }

  switch (exceeded) {
    case Limit::disk:
      outcome.resource_exceeded = true;
      outcome.error = "task exceeded its disk allocation of " +
                      std::to_string(task.resources.disk_mb) + "MB";
      return outcome;
    case Limit::memory:
      outcome.resource_exceeded = true;
      outcome.error = "task exceeded its memory allocation of " +
                      std::to_string(task.resources.memory_mb) + "MB";
      return outcome;
    case Limit::wall_time:
      outcome.error = "task exceeded its wall-time limit of " +
                      std::to_string(task.timeout_seconds) + "s";
      return outcome;
    case Limit::none:
      break;
  }

  // Fast tasks can finish between checks; enforce the disk allocation on
  // the final sandbox state as well.
  if (task.resources.disk_mb > 0) {
    auto used = tree_size(sandbox);
    if (used.ok() && *used > task.resources.disk_mb * 1000 * 1000) {
      outcome.resource_exceeded = true;
      outcome.error = "task exceeded its disk allocation of " +
                      std::to_string(task.resources.disk_mb) + "MB";
      return outcome;
    }
  }

  // Capture (bounded) stdout.
  if (auto text = read_file(stdout_path); text.ok()) {
    outcome.output = std::move(*text);
    if (outcome.output.size() > config_.max_captured_output) {
      outcome.output.resize(config_.max_captured_output);
    }
  }
  remove_all_quiet(stdout_path);

  if (WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
    outcome.ok = (outcome.exit_code == 0);
    if (!outcome.ok) {
      outcome.error = "command exited with status " +
                      std::to_string(outcome.exit_code);
    }
  } else if (WIFSIGNALED(status)) {
    outcome.error = "command killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    outcome.error = "command ended abnormally";
  }
  return outcome;
}

ExecOutcome Executor::run_function(const proto::WireTask& task, const fs::path& sandbox) {
  ExecOutcome outcome;
  auto fn = FunctionRegistry::instance().lookup(task.function_name);
  if (!fn.ok()) {
    outcome.error = fn.error().to_string();
    return outcome;
  }
  FunctionContext ctx;
  ctx.sandbox_dir = sandbox.string();
  ctx.worker_id = config_.worker_id;
  auto result = (*fn)(task.function_args, ctx);
  if (!result.ok()) {
    outcome.error = "function failed: " + result.error().to_string();
    return outcome;
  }
  outcome.ok = true;
  outcome.exit_code = 0;
  outcome.output = std::move(*result);
  return outcome;
}

}  // namespace vine
