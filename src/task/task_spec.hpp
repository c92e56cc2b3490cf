// Task specifications: the execution half of a TaskVine workflow (paper
// §2.4). A plain Task runs a Unix command in a private sandbox; a
// FunctionTask invokes a registered in-process function (the PythonTask
// analog); LibraryTask/FunctionCall implement the serverless model; a
// MiniTask is a task run on demand to materialize a File.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "files/file_decl.hpp"
#include "task/resources.hpp"

namespace vine {

/// How a task executes at the worker.
enum class TaskKind : std::uint8_t {
  command,        ///< Unix command line in a sandbox
  function,       ///< registered C++ function, run in-process at the worker
  library,        ///< persistent Library Instance (serverless host)
  function_call,  ///< invocation routed to a running Library Instance
  mini,           ///< on-demand file materialization (never user-submitted)
};

const char* task_kind_name(TaskKind kind) noexcept;

/// Binding of a declared file into a task's sandbox namespace.
struct Mount {
  FileRef file;              ///< the declared file
  std::string sandbox_name;  ///< user-visible name inside the sandbox
};

/// Complete description of one task. Immutable once submitted.
struct TaskSpec {
  TaskId id = 0;
  TaskKind kind = TaskKind::command;

  /// kind == command / mini: the command line, run with /bin/sh -c.
  std::string command;

  /// kind == function / function_call: registered function name and its
  /// serialized argument string.
  std::string function_name;
  std::string function_args;

  /// kind == library: the library name being hosted.
  /// kind == function_call: the library targeted by the invocation.
  std::string library_name;

  std::vector<Mount> inputs;
  std::vector<Mount> outputs;
  std::map<std::string, std::string> env;

  Resources resources{};  ///< declared allocation (cores default 1)

  /// Retry policy: total attempts permitted (>=1). On resource-exceeded
  /// failures the allocation grows per Resources::grown.
  int max_attempts = 1;

  /// Wall-time limit in seconds; 0 = unlimited.
  double timeout_seconds = 0;

  /// Worker picked by the user instead of the scheduler (tests/ablation).
  std::string pinned_worker;
};

/// Terminal states reported for a task.
enum class TaskState : std::uint8_t {
  ready,       ///< waiting for scheduling
  dispatched,  ///< sent to a worker (inputs may still be staging)
  running,     ///< executing at the worker
  done,        ///< completed successfully
  failed,      ///< exhausted retries or hard failure
};

const char* task_state_name(TaskState state) noexcept;

/// Completion record returned to the application.
struct TaskReport {
  TaskId id = 0;
  TaskState state = TaskState::failed;
  int exit_code = -1;
  std::string output;        ///< captured stdout (command) or function result
  std::string error_message; ///< failure detail when state == failed
  std::string worker_id;     ///< where the final attempt ran
  int attempts = 0;

  // Timeline, in seconds. submitted_at/dispatched_at are on the manager's
  // SteadyClock; started_at/finished_at are stamped by the worker on its own
  // SteadyClock, so only their difference (the run time) is comparable with
  // the manager-side stamps.
  double submitted_at = 0;
  double dispatched_at = 0;
  double started_at = 0;
  double finished_at = 0;

  bool ok() const { return state == TaskState::done; }
};

}  // namespace vine
