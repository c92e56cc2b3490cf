// Unit tests for src/worker components in isolation: CacheStore, Executor,
// LibraryInstance, built-in functions, and a Worker driven by a stand-in
// manager.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "archive/vpak.hpp"
#include "common/uuid.hpp"
#include "fsutil/fsutil.hpp"
#include "net/channel.hpp"
#include "net/msg_queue.hpp"
#include "worker/builtins.hpp"
#include "worker/cache_store.hpp"
#include "worker/executor.hpp"
#include "worker/library_instance.hpp"
#include "worker/worker.hpp"

namespace vine {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ------------------------------------------------------------ CacheStore

class CacheStoreTest : public ::testing::Test {
 protected:
  TempDir tmp_{"vine_cachestore"};
};

TEST_F(CacheStoreTest, PutBytesAndLookup) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("md5-abc", "payload", CacheLevel::workflow).ok());
  EXPECT_TRUE(cache.contains("md5-abc"));
  auto p = cache.object_path("md5-abc");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(read_file(*p).value(), "payload");
  auto e = cache.entry("md5-abc");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->size, 7);
  EXPECT_FALSE(e->is_dir);
  EXPECT_EQ(cache.used_bytes(), 7);
}

TEST_F(CacheStoreTest, PutArchiveBecomesDirectory) {
  CacheStore cache(tmp_.path() / "cache");
  auto bytes = vpak_write({{VpakEntry::Kind::directory, "sub", ""},
                           {VpakEntry::Kind::file, "sub/x.txt", "X"}});
  ASSERT_TRUE(cache.put_archive("tree-1", bytes, CacheLevel::worker).ok());
  auto e = cache.entry("tree-1");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->is_dir);
  auto p = cache.object_path("tree-1");
  EXPECT_EQ(read_file(*p / "sub/x.txt").value(), "X");
}

TEST_F(CacheStoreTest, AdoptMovesFileIn) {
  CacheStore cache(tmp_.path() / "cache");
  auto src = tmp_.path() / "produced.txt";
  ASSERT_TRUE(write_file_atomic(src, "output-data").ok());
  ASSERT_TRUE(cache.adopt("task-xyz", src, CacheLevel::workflow).ok());
  EXPECT_FALSE(fs::exists(src));
  EXPECT_TRUE(cache.contains("task-xyz"));
}

TEST_F(CacheStoreTest, EndWorkflowKeepsOnlyWorkerLevel) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("t", "1", CacheLevel::task).ok());
  ASSERT_TRUE(cache.put_bytes("wf", "22", CacheLevel::workflow).ok());
  ASSERT_TRUE(cache.put_bytes("wk", "333", CacheLevel::worker).ok());
  cache.end_workflow();
  EXPECT_FALSE(cache.contains("t"));
  EXPECT_FALSE(cache.contains("wf"));
  EXPECT_TRUE(cache.contains("wk"));
  EXPECT_EQ(cache.used_bytes(), 3);
}

TEST_F(CacheStoreTest, PersistenceAcrossReopen) {
  auto dir = tmp_.path() / "cache";
  {
    CacheStore cache(dir);
    ASSERT_TRUE(cache.put_bytes("wk-obj", "persist-me", CacheLevel::worker).ok());
  }
  CacheStore reopened(dir);
  EXPECT_TRUE(reopened.contains("wk-obj"));
  auto e = reopened.entry("wk-obj");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->level, CacheLevel::worker);  // survivors are worker-lifetime
  EXPECT_EQ(e->size, 10);
}

TEST_F(CacheStoreTest, ReadForTransferFileAndDir) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("f", "bytes", CacheLevel::workflow).ok());
  auto ft = cache.read_for_transfer("f");
  ASSERT_TRUE(ft.ok());
  EXPECT_EQ(ft->first, "bytes");
  EXPECT_FALSE(ft->second);

  auto bytes = vpak_write({{VpakEntry::Kind::file, "a", "A"}});
  ASSERT_TRUE(cache.put_archive("d", bytes, CacheLevel::workflow).ok());
  auto dt = cache.read_for_transfer("d");
  ASSERT_TRUE(dt.ok());
  EXPECT_TRUE(dt->second);
  auto entries = vpak_read(dt->first);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ((*entries)[0].path, "a");
}

TEST_F(CacheStoreTest, RemoveObject) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("x", "1", CacheLevel::workflow).ok());
  ASSERT_TRUE(cache.remove_object("x").ok());
  EXPECT_FALSE(cache.contains("x"));
  EXPECT_FALSE(cache.object_path("x").ok());
}

TEST_F(CacheStoreTest, RejectsBadNames) {
  CacheStore cache(tmp_.path() / "cache");
  EXPECT_FALSE(cache.put_bytes("", "x", CacheLevel::task).ok());
  EXPECT_FALSE(cache.put_bytes("a/b", "x", CacheLevel::task).ok());
  EXPECT_FALSE(cache.put_bytes("..", "x", CacheLevel::task).ok());
}

// ------------------------------------------------------------ Executor

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : cache_(tmp_.path() / "cache") {
    register_builtin_functions();
    exec_ = std::make_unique<Executor>(
        ExecutorConfig{tmp_.path() / "sandboxes", "w-test", 1 << 20, 0.02}, cache_);
  }

  proto::WireTask command_task(std::string cmd) {
    proto::WireTask t;
    t.id = 1;
    t.kind = TaskKind::command;
    t.command = std::move(cmd);
    return t;
  }

  TempDir tmp_{"vine_executor"};
  CacheStore cache_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecutorTest, RunsCommandAndCapturesStdout) {
  auto out = exec_->execute(command_task("echo hello-from-task"));
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_EQ(out.output, "hello-from-task\n");
}

TEST_F(ExecutorTest, NonzeroExitIsFailure) {
  auto out = exec_->execute(command_task("exit 3"));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.exit_code, 3);
}

TEST_F(ExecutorTest, InputsAppearUnderSandboxNames) {
  ASSERT_TRUE(cache_.put_bytes("md5-in", "INPUT-DATA", CacheLevel::workflow).ok());
  auto t = command_task("cat renamed.txt");
  t.inputs.push_back({"md5-in", "renamed.txt", CacheLevel::workflow});
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.output, "INPUT-DATA");
}

TEST_F(ExecutorTest, MissingInputFailsCleanly) {
  auto t = command_task("true");
  t.inputs.push_back({"md5-ghost", "x", CacheLevel::workflow});
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("not cached"), std::string::npos);
}

TEST_F(ExecutorTest, OutputsHarvestedIntoCache) {
  auto t = command_task("printf result > out.txt");
  t.outputs.push_back({"task-out1", "out.txt", CacheLevel::workflow});
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0].cache_name, "task-out1");
  EXPECT_EQ(out.outputs[0].size, 6);
  auto p = cache_.object_path("task-out1");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(read_file(*p).value(), "result");
}

TEST_F(ExecutorTest, MissingDeclaredOutputFails) {
  auto t = command_task("true");
  t.outputs.push_back({"task-out2", "never-made.txt", CacheLevel::workflow});
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("output missing"), std::string::npos);
}

TEST_F(ExecutorTest, EnvVariablesVisible) {
  auto t = command_task("printf \"$VINE_TEST_VAR\"");
  t.env["VINE_TEST_VAR"] = "value-42";
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.output, "value-42");
}

TEST_F(ExecutorTest, TimeoutKillsTask) {
  auto t = command_task("sleep 30");
  t.timeout_seconds = 0.2;
  auto start = std::chrono::steady_clock::now();
  auto out = exec_->execute(t);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(out.ok);
  EXPECT_LT(elapsed, 5s);
  EXPECT_NE(out.error.find("wall-time"), std::string::npos);
}

TEST_F(ExecutorTest, DiskOverageKillsTask) {
  // Writes ~8MB while declaring 1MB of disk.
  auto t = command_task(
      "dd if=/dev/zero of=big.bin bs=1M count=8 2>/dev/null; sleep 5");
  t.resources.disk_mb = 1;
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.resource_exceeded) << out.error;
}

TEST_F(ExecutorTest, MemoryOverageKillsTask) {
  // The shell accumulates a ~60MB variable while declaring 10MB of memory.
  auto t = command_task(
      "s=$(head -c 60000000 /dev/zero | tr '\\0' 'a'); sleep 5; echo ${#s}");
  t.resources.memory_mb = 10;
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.resource_exceeded) << out.error;
  EXPECT_NE(out.error.find("memory"), std::string::npos);
}

TEST_F(ExecutorTest, MemoryWithinAllocationSucceeds) {
  auto t = command_task("s=$(head -c 1000 /dev/zero | tr '\\0' 'a'); echo ${#s}");
  t.resources.memory_mb = 100;
  auto out = exec_->execute(t);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.output, "1000\n");
}

TEST_F(ExecutorTest, UnlimitedCommandReturnsWithoutWaitingForACheck) {
  // Reaping blocks on the child's exit; the check interval plays no part.
  Executor slow_checks(ExecutorConfig{tmp_.path() / "sandboxes", "w-test", 1 << 20, 1.0},
                       cache_);
  auto start = std::chrono::steady_clock::now();
  auto out = slow_checks.execute(command_task("true"));
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_LT(elapsed, 100ms);
}

TEST_F(ExecutorTest, LimitedCommandFinishingEarlyReturnsWithoutWaitingForACheck) {
  Executor slow_checks(ExecutorConfig{tmp_.path() / "sandboxes", "w-test", 1 << 20, 1.0},
                       cache_);
  auto t = command_task("true");
  t.timeout_seconds = 30;
  t.resources.disk_mb = 100;
  t.resources.memory_mb = 100;
  auto start = std::chrono::steady_clock::now();
  auto out = slow_checks.execute(t);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_LT(elapsed, 500ms);  // well inside the first 1 s check
}

TEST_F(ExecutorTest, MissingSandboxFailsCleanly) {
  // The sandbox root lies below a regular file, so no sandbox can exist.
  ASSERT_TRUE(write_file_atomic(tmp_.path() / "not-a-dir", "x").ok());
  Executor broken(ExecutorConfig{tmp_.path() / "not-a-dir" / "sandboxes", "w-test",
                                 1 << 20, 0.02},
                  cache_);
  auto out = broken.execute(command_task("true"));
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("sandbox"), std::string::npos) << out.error;
}

TEST_F(ExecutorTest, SpawnFailureIsAFailedOutcome) {
  // A directory where the stdout capture file goes makes the spawn's open
  // fail; the task fails with the reason instead of running.
  auto ar = vpak_write({{VpakEntry::Kind::directory, "d", ""}});
  ASSERT_TRUE(cache_.put_archive("md5-dir", ar, CacheLevel::workflow).ok());
  auto t = command_task("echo never");
  t.inputs.push_back({"md5-dir", ".vine-stdout", CacheLevel::workflow});
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("spawn failed"), std::string::npos) << out.error;
}

TEST_F(ExecutorTest, SandboxIsDeletedAfterRun) {
  (void)exec_->execute(command_task("true"));
  int remaining = 0;
  for ([[maybe_unused]] const auto& de :
       fs::directory_iterator(tmp_.path() / "sandboxes")) {
    ++remaining;
  }
  EXPECT_EQ(remaining, 0);
}

TEST_F(ExecutorTest, FunctionTaskRuns) {
  proto::WireTask t;
  t.id = 2;
  t.kind = TaskKind::function;
  t.function_name = "vine.echo";
  t.function_args = "ping";
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.output, "ping");
}

TEST_F(ExecutorTest, UnknownFunctionFails) {
  proto::WireTask t;
  t.kind = TaskKind::function;
  t.function_name = "no.such.fn";
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
}

TEST_F(ExecutorTest, UnpackMiniTaskMaterializesTree) {
  // Stage a vpak archive in the cache, unpack it via the builtin.
  auto bytes = vpak_write({{VpakEntry::Kind::directory, "pkg", ""},
                           {VpakEntry::Kind::file, "pkg/bin", "BINARY"}});
  ASSERT_TRUE(cache_.put_bytes("md5-ar", bytes, CacheLevel::workflow).ok());

  proto::WireTask t;
  t.id = 3;
  t.kind = TaskKind::mini;
  t.function_name = "vine.unpack";
  t.function_args = R"({"archive":"input.vpak","out":"unpacked"})";
  t.inputs.push_back({"md5-ar", "input.vpak", CacheLevel::workflow});
  t.outputs.push_back({"task-tree", "unpacked", CacheLevel::worker});
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  auto p = cache_.object_path("task-tree");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(read_file(*p / "pkg/bin").value(), "BINARY");
  auto e = cache_.entry("task-tree");
  EXPECT_EQ(e->level, CacheLevel::worker);
}

// ------------------------------------------------------- LibraryInstance

class LibraryInstanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LibraryBlueprint bp;
    bp.name = "itest.math";
    bp.init = [](const FunctionContext&) -> Result<LibraryState> {
      return LibraryState(std::make_shared<int>(1000));
    };
    bp.functions["add"] = [](const LibraryState& st, const std::string& args,
                             const FunctionContext&) -> Result<std::string> {
      return std::to_string(*std::static_pointer_cast<int>(st) + std::stoi(args));
    };
    bp.functions["fail"] = [](const LibraryState&, const std::string&,
                              const FunctionContext&) -> Result<std::string> {
      return Error{Errc::task_failed, "deliberate"};
    };
    LibraryRegistry::instance().register_library(bp);
  }
};

TEST_F(LibraryInstanceTest, InitAnnouncesFunctions) {
  LibraryInstance inst("itest.math", 1, {});
  auto init = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(init.has_value());
  EXPECT_EQ(init->get_string("type"), "init");
  EXPECT_TRUE(init->get_bool("ok"));
  EXPECT_EQ(init->find("functions")->as_array().size(), 2u);
  inst.stop();
}

TEST_F(LibraryInstanceTest, InvocationsShareInitState) {
  LibraryInstance inst("itest.math", 1, {});
  ASSERT_TRUE(inst.from_instance().pop(5000ms).has_value());  // init
  inst.invoke(11, "add", "1");
  inst.invoke(12, "add", "2");
  std::map<std::int64_t, std::string> results;
  for (int i = 0; i < 2; ++i) {
    auto r = inst.from_instance().pop(5000ms);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->get_string("type"), "result");
    EXPECT_TRUE(r->get_bool("ok"));
    results[r->get_int("call_id")] = r->get_string("output");
  }
  EXPECT_EQ(results[11], "1001");
  EXPECT_EQ(results[12], "1002");
  inst.stop();
}

TEST_F(LibraryInstanceTest, FunctionErrorsAreReported) {
  LibraryInstance inst("itest.math", 1, {});
  ASSERT_TRUE(inst.from_instance().pop(5000ms).has_value());
  inst.invoke(5, "fail", "");
  auto r = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->get_bool("ok"));
  EXPECT_NE(r->get_string("error").find("deliberate"), std::string::npos);
  inst.stop();
}

TEST_F(LibraryInstanceTest, UnknownFunctionRejected) {
  LibraryInstance inst("itest.math", 1, {});
  ASSERT_TRUE(inst.from_instance().pop(5000ms).has_value());
  inst.invoke(6, "multiply", "2");
  auto r = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->get_bool("ok"));
  inst.stop();
}

TEST_F(LibraryInstanceTest, UnknownLibraryFailsInit) {
  LibraryInstance inst("itest.ghost", 1, {});
  auto init = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(init.has_value());
  EXPECT_FALSE(init->get_bool("ok"));
  inst.stop();
}

// ------------------------------------------------------------ Worker

/// Mappings in this process: one line each in /proc/self/maps.
int map_count() {
  std::ifstream maps("/proc/self/maps");
  int n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

/// Stands in for the manager on an in-process channel: takes the worker's
/// control connection and queues every message the worker sends.
class FakeManager {
 public:
  FakeManager() {
    auto l = ChannelFabric::instance().listen(
        "worker-test-mgr-" + generate_token(6), [this](std::unique_ptr<Endpoint> ep) {
          ep->set_receiver([this](Result<Frame> f) {
            if (f.ok() && f->kind == Frame::Kind::json) inbox_.push(std::move(f->msg));
          });
          conn_ = std::move(ep);  // runs on the connecting thread
        });
    if (!l.ok()) {
      ADD_FAILURE() << l.error().to_string();
      return;
    }
    listener_ = std::move(*l);
  }

  std::string address() const { return listener_ ? listener_->address() : ""; }

  void send(const proto::AnyMessage& msg) {
    ASSERT_TRUE(conn_);
    ASSERT_TRUE(conn_->send_json(proto::encode(msg)).ok());
  }

  /// Next message from the worker of type T, skipping others.
  template <typename T>
  std::optional<T> next(std::chrono::milliseconds timeout = 10s) {
    while (auto v = inbox_.pop(timeout)) {
      auto msg = proto::decode(*v);
      if (msg.ok() && std::holds_alternative<T>(*msg)) return std::get<T>(*msg);
    }
    return std::nullopt;
  }

 private:
  MsgQueue<json::Value> inbox_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Endpoint> conn_;
};

/// Run `total` tasks with at most `in_flight` outstanding, as the manager's
/// admission would; every one must succeed.
template <typename MakeTask>
void run_tasks(FakeManager& mgr, int total, int in_flight, MakeTask make_task) {
  int sent = 0;
  for (int done = 0; done < total; ++done) {
    while (sent < total && sent - done < in_flight) {
      mgr.send(proto::RunTaskMsg{make_task(static_cast<TaskId>(100 + sent))});
      ++sent;
    }
    auto d = mgr.next<proto::TaskDoneMsg>();
    ASSERT_TRUE(d.has_value()) << "no completion after " << done;
    ASSERT_TRUE(d->ok) << d->error;
  }
}

TEST(WorkerTest, ThousandsOfTasksAndCallsDoNotGrowTheMappings) {
  LibraryBlueprint bp;
  bp.name = "wtest.echo";
  bp.functions["echo"] = [](const LibraryState&, const std::string& args,
                            const FunctionContext&) -> Result<std::string> {
    return args;
  };
  LibraryRegistry::instance().register_library(bp);

  TempDir tmp{"vine_worker_maps"};
  FakeManager mgr;
  WorkerConfig cfg;
  cfg.id = "w-maps";
  cfg.manager_addr = mgr.address();
  cfg.root_dir = tmp.path();
  cfg.heartbeat_interval_ms = 0;
  auto worker = Worker::connect(cfg);
  ASSERT_TRUE(worker.ok()) << worker.error().to_string();
  (*worker)->start();
  ASSERT_TRUE(mgr.next<proto::HelloMsg>().has_value());

  proto::WireTask lib;
  lib.id = 1;
  lib.kind = TaskKind::library;
  lib.library_name = "wtest.echo";
  mgr.send(proto::RunTaskMsg{lib});
  ASSERT_TRUE(mgr.next<proto::LibraryReadyMsg>().has_value());
  const int idle = map_count();

  constexpr int kTasks = 2000;
  constexpr int kInFlight = 8;
  run_tasks(mgr, kTasks, kInFlight, [](TaskId id) {
    proto::WireTask t;
    t.id = id;
    t.command = "true";
    return t;
  });
  run_tasks(mgr, kTasks, kInFlight, [](TaskId id) {
    proto::WireTask t;
    t.id = id;
    t.kind = TaskKind::function_call;
    t.library_name = "wtest.echo";
    t.function_name = "echo";
    t.function_args = "x";
    return t;
  });

  // The exec and calls pools grow to about the in-flight peak (at most
  // twice it: a finishing thread is not idle yet when the next job comes)
  // and stay there. A pool thread costs a stack, its guard page, a malloc
  // arena and, under a sanitizer, its runtime's per-thread state: well
  // under 10 mappings. A thread kept per task or call would instead add at
  // least 2 mappings for each of the 4000.
  constexpr int kMappingsPerThread = 10;
  EXPECT_LE(map_count(), idle + 2 * (2 * kInFlight) * kMappingsPerThread);
  (*worker)->stop();
}

}  // namespace
}  // namespace vine
