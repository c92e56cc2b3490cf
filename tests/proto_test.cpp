// Unit tests for src/proto: every message type round-trips through
// encode/decode; malformed input is rejected.
#include <gtest/gtest.h>

#include "proto/messages.hpp"

namespace vine::proto {
namespace {

template <typename T>
T round_trip(const T& msg) {
  auto decoded = decode(encode(AnyMessage(msg)));
  EXPECT_TRUE(decoded.ok());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
  return std::get<T>(*decoded);
}

TEST(Proto, PutRoundTrip) {
  PutMsg m{"uuid-1", "md5-abc", CacheLevel::worker, true};
  auto back = round_trip(m);
  EXPECT_EQ(back.transfer_id, "uuid-1");
  EXPECT_EQ(back.cache_name, "md5-abc");
  EXPECT_EQ(back.level, CacheLevel::worker);
  EXPECT_TRUE(back.is_dir);
}

TEST(Proto, FetchRoundTripWorkerSource) {
  FetchMsg m;
  m.transfer_id = "u2";
  m.cache_name = "f";
  m.level = CacheLevel::task;
  m.source = TransferSource::from_worker("w7");
  m.source_addr = "chan:xfer-w7";
  auto back = round_trip(m);
  EXPECT_EQ(back.source.kind, TransferSource::Kind::worker);
  EXPECT_EQ(back.source.key, "w7");
  EXPECT_EQ(back.source_addr, "chan:xfer-w7");
  EXPECT_EQ(back.level, CacheLevel::task);
}

TEST(Proto, FetchRoundTripUrlSource) {
  FetchMsg m;
  m.source = TransferSource::from_url("file:///a/b");
  auto back = round_trip(m);
  EXPECT_EQ(back.source.kind, TransferSource::Kind::url);
  EXPECT_EQ(back.source.key, "file:///a/b");
}

TEST(Proto, WireTaskRoundTrip) {
  WireTask t;
  t.id = 99;
  t.kind = TaskKind::function_call;
  t.command = "unused";
  t.function_name = "gradient";
  t.function_args = "{\"i\":3}";
  t.library_name = "optimizer";
  t.inputs.push_back({"md5-a", "data", CacheLevel::worker});
  t.outputs.push_back({"task-o", "out.bin", CacheLevel::workflow});
  t.env["KEY"] = "VAL";
  t.resources = {.cores = 2.5, .memory_mb = 1024, .disk_mb = 77, .gpus = 1};
  t.timeout_seconds = 12.5;

  auto v = wire_task_to_json(t);
  auto back = wire_task_from_json(v);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, 99u);
  EXPECT_EQ(back->kind, TaskKind::function_call);
  EXPECT_EQ(back->function_name, "gradient");
  EXPECT_EQ(back->library_name, "optimizer");
  ASSERT_EQ(back->inputs.size(), 1u);
  EXPECT_EQ(back->inputs[0].cache_name, "md5-a");
  EXPECT_EQ(back->inputs[0].level, CacheLevel::worker);
  EXPECT_EQ(back->env.at("KEY"), "VAL");
  EXPECT_DOUBLE_EQ(back->resources.cores, 2.5);
  EXPECT_EQ(back->resources.gpus, 1);
  EXPECT_DOUBLE_EQ(back->timeout_seconds, 12.5);
}

TEST(Proto, MiniTaskRoundTrip) {
  MiniTaskMsg m;
  m.transfer_id = "u3";
  m.cache_name = "task-tree";
  m.level = CacheLevel::worker;
  m.task.kind = TaskKind::mini;
  m.task.function_name = "vine.unpack";
  m.task.outputs.push_back({"task-tree", "unpacked", CacheLevel::worker});
  auto back = round_trip(m);
  EXPECT_EQ(back.cache_name, "task-tree");
  EXPECT_EQ(back.task.function_name, "vine.unpack");
  ASSERT_EQ(back.task.outputs.size(), 1u);
}

TEST(Proto, RunTaskRoundTrip) {
  RunTaskMsg m;
  m.task.id = 5;
  m.task.command = "echo hi";
  auto back = round_trip(m);
  EXPECT_EQ(back.task.id, 5u);
  EXPECT_EQ(back.task.command, "echo hi");
}

TEST(Proto, HelloRoundTripWithCachedObjects) {
  HelloMsg m;
  m.worker_id = "w1";
  m.transfer_addr = "127.0.0.1:5555";
  m.resources = {.cores = 16, .memory_mb = 64000, .disk_mb = 2000000, .gpus = 2};
  m.cached.push_back({"md5-x", 610000000});
  m.cached.push_back({"task-y", 42});
  auto back = round_trip(m);
  EXPECT_EQ(back.worker_id, "w1");
  EXPECT_EQ(back.resources.gpus, 2);
  ASSERT_EQ(back.cached.size(), 2u);
  EXPECT_EQ(back.cached[0].cache_name, "md5-x");
  EXPECT_EQ(back.cached[0].size, 610000000);
}

TEST(Proto, CacheUpdateRoundTrip) {
  CacheUpdateMsg m{"md5-z", "uuid-9", false, -1, "fetch failed"};
  auto back = round_trip(m);
  EXPECT_EQ(back.cache_name, "md5-z");
  EXPECT_EQ(back.transfer_id, "uuid-9");
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "fetch failed");
}

TEST(Proto, TaskDoneRoundTrip) {
  TaskDoneMsg m;
  m.task_id = 7;
  m.ok = true;
  m.exit_code = 0;
  m.output = "stdout text";
  m.started_at = 1.5;
  m.finished_at = 2.5;
  m.outputs.push_back({"task-out", 123});
  auto back = round_trip(m);
  EXPECT_EQ(back.task_id, 7u);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.output, "stdout text");
  EXPECT_DOUBLE_EQ(back.finished_at, 2.5);
  ASSERT_EQ(back.outputs.size(), 1u);
  EXPECT_EQ(back.outputs[0].size, 123);
}

TEST(Proto, TaskDoneResourceExceeded) {
  TaskDoneMsg m;
  m.task_id = 8;
  m.ok = false;
  m.resource_exceeded = true;
  auto back = round_trip(m);
  EXPECT_TRUE(back.resource_exceeded);
}

TEST(Proto, LibraryReadyRoundTrip) {
  LibraryReadyMsg m{42, "optimizer", {"gradient", "loss"}};
  auto back = round_trip(m);
  EXPECT_EQ(back.task_id, 42u);
  EXPECT_EQ(back.library_name, "optimizer");
  EXPECT_EQ(back.functions, (std::vector<std::string>{"gradient", "loss"}));
}

TEST(Proto, GetAndObjRoundTrip) {
  // A send_file reply is an obj that echoes the request id.
  auto reply = round_trip(ObjMsg{"req-1", "md5-q", true, false, ""});
  EXPECT_EQ(reply.request_id, "req-1");
  EXPECT_EQ(reply.cache_name, "md5-q");
  EXPECT_TRUE(reply.ok);

  auto get = round_trip(GetMsg{"md5-q"});
  EXPECT_EQ(get.cache_name, "md5-q");

  // A peer serve leaves the request id empty.
  auto obj = round_trip(ObjMsg{"", "md5-q", true, true, ""});
  EXPECT_TRUE(obj.request_id.empty());
  EXPECT_TRUE(obj.is_dir);
}

TEST(Proto, HeartbeatRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<HeartbeatMsg>(
      *decode(encode(AnyMessage(HeartbeatMsg{})))));
}

TEST(Proto, ObjDigestRoundTrip) {
  ObjMsg msg;
  msg.cache_name = "md5-q";
  msg.ok = true;
  msg.digest = "9e107d9d372bb6826bd81d3542a419d6";
  auto obj = round_trip(msg);
  EXPECT_EQ(obj.digest, "9e107d9d372bb6826bd81d3542a419d6");

  // Digest is optional: an empty one must survive the trip as empty
  // (old senders that don't attest stay compatible).
  auto bare = round_trip(ObjMsg{"", "md5-q", true, false, ""});
  EXPECT_TRUE(bare.digest.empty());
}

TEST(Proto, ControlMessages) {
  EXPECT_TRUE(std::holds_alternative<EndWorkflowMsg>(
      *decode(encode(AnyMessage(EndWorkflowMsg{})))));
  EXPECT_TRUE(std::holds_alternative<ShutdownMsg>(
      *decode(encode(AnyMessage(ShutdownMsg{})))));
  auto ul = round_trip(UnlinkMsg{"md5-dead"});
  EXPECT_EQ(ul.cache_name, "md5-dead");
  auto sf = round_trip(SendFileMsg{"req-2", "md5-s"});
  EXPECT_EQ(sf.request_id, "req-2");
}

TEST(Proto, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode(json::Value("not an object")).ok());
  EXPECT_FALSE(decode(json::Value(json::Object{{"type", json::Value("nope")}})).ok());
  EXPECT_FALSE(decode(json::Value(json::Object{})).ok());
  // run_task without a task payload
  EXPECT_FALSE(
      decode(json::Value(json::Object{{"type", json::Value("run_task")}})).ok());
}

TEST(Proto, LevelWireNames) {
  EXPECT_EQ(level_from_wire("task"), CacheLevel::task);
  EXPECT_EQ(level_from_wire("worker"), CacheLevel::worker);
  EXPECT_EQ(level_from_wire("workflow"), CacheLevel::workflow);
  EXPECT_EQ(level_from_wire("bogus"), CacheLevel::workflow);  // safe default
}

}  // namespace
}  // namespace vine::proto
