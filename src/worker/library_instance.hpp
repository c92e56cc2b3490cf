// Library Instances: the serverless execution model (paper §3.4, Figure 8).
//
// A LibraryTask installs a Library on a worker. The worker creates a
// bidirectional message channel (the paper's pipe), starts the instance,
// and waits for a JSON init message describing the functions offered. The
// instance then waits passively; each FunctionCall task becomes a JSON
// invocation message, the instance "forks" (hands the call to a pool
// thread — the in-process analog of the paper's fork), runs the
// already-loaded function against the state built once by init, and
// returns a JSON result message. The expensive init cost is paid once per
// worker, not per call.
//
// Wire shapes on the instance channel:
//   instance -> worker:  {"type":"init","library":L,"functions":[...],"ok":B}
//                        {"type":"result","call_id":N,"ok":B,"output":S,"error":S}
//   worker -> instance:  {"type":"invoke","call_id":N,"function":S,"args":S}
//                        {"type":"stop"}
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "common/work_pool.hpp"
#include "json/json.hpp"
#include "net/msg_queue.hpp"
#include "task/registry.hpp"
#include "task/task_spec.hpp"

namespace vine {

/// One running Library Instance on a worker.
class LibraryInstance {
 public:
  /// Start an instance of the registered blueprint `library_name`. The
  /// sandbox (inputs already linked in) is owned by the caller and must
  /// outlive the instance. `task_id` is the installing LibraryTask.
  /// Init runs asynchronously; the outcome arrives as the init message on
  /// from_instance().
  LibraryInstance(std::string library_name, TaskId task_id,
                  FunctionContext context);
  ~LibraryInstance();

  LibraryInstance(const LibraryInstance&) = delete;
  LibraryInstance& operator=(const LibraryInstance&) = delete;

  /// Queue a function invocation (worker -> instance message).
  void invoke(TaskId call_id, const std::string& function, const std::string& args);

  /// Messages from the instance (init, results). The worker's pump thread
  /// drains this.
  MsgQueue<json::Value>& from_instance() { return to_worker_; }

  /// Ask the instance to stop and join all its threads.
  void stop();

  const std::string& name() const { return library_name_; }
  TaskId task_id() const { return task_id_; }

 private:
  void dispatcher_main();

  std::string library_name_;
  TaskId task_id_;
  FunctionContext context_;

  MsgQueue<json::Value> to_instance_;
  MsgQueue<json::Value> to_worker_;

  // Runs the invocations. Uncapped: the manager admits no more calls than
  // the library's slots, so the pool never outgrows that.
  WorkPool calls_;
  std::atomic<bool> stopping_{false};
  std::thread dispatcher_;
};

}  // namespace vine
