#include "proto/messages.hpp"

#include <variant>

namespace vine::proto {

using json::Array;
using json::Object;
using json::Value;

// ----------------------------------------------------------- primitives

json::Value resources_to_json(const Resources& r) {
  Object o;
  o["cores"] = r.cores;
  o["memory_mb"] = r.memory_mb;
  o["disk_mb"] = r.disk_mb;
  o["gpus"] = r.gpus;
  return Value(std::move(o));
}

Resources resources_from_json(const json::Value& v) {
  Resources r;
  r.cores = v.get_double("cores", 1);
  r.memory_mb = v.get_int("memory_mb", 0);
  r.disk_mb = v.get_int("disk_mb", 0);
  r.gpus = static_cast<int>(v.get_int("gpus", 0));
  return r;
}

json::Value source_to_json(const TransferSource& s, const std::string& addr) {
  Object o;
  switch (s.kind) {
    case TransferSource::Kind::manager: o["kind"] = "manager"; break;
    case TransferSource::Kind::url: o["kind"] = "url"; break;
    case TransferSource::Kind::worker: o["kind"] = "worker"; break;
  }
  o["key"] = s.key;
  if (!addr.empty()) o["addr"] = addr;
  return Value(std::move(o));
}

TransferSource source_from_json(const json::Value& v) {
  std::string kind = v.get_string("kind", "manager");
  TransferSource s;
  if (kind == "url") s.kind = TransferSource::Kind::url;
  else if (kind == "worker") s.kind = TransferSource::Kind::worker;
  else s.kind = TransferSource::Kind::manager;
  s.key = v.get_string("key");
  return s;
}

const char* level_to_wire(CacheLevel level) { return cache_level_name(level); }

CacheLevel level_from_wire(const std::string& s) {
  if (s == "task") return CacheLevel::task;
  if (s == "worker") return CacheLevel::worker;
  return CacheLevel::workflow;
}

namespace {

const char* kind_to_wire(TaskKind k) { return task_kind_name(k); }

TaskKind kind_from_wire(const std::string& s) {
  if (s == "function") return TaskKind::function;
  if (s == "library") return TaskKind::library;
  if (s == "function_call") return TaskKind::function_call;
  if (s == "mini") return TaskKind::mini;
  return TaskKind::command;
}

Value mounts_to_json(const std::vector<WireMount>& mounts) {
  Array arr;
  for (const auto& m : mounts) {
    Object o;
    o["cache_name"] = m.cache_name;
    o["sandbox_name"] = m.sandbox_name;
    o["level"] = level_to_wire(m.level);
    arr.emplace_back(std::move(o));
  }
  return Value(std::move(arr));
}

std::vector<WireMount> mounts_from_json(const Value* v) {
  std::vector<WireMount> out;
  if (!v || !v->is_array()) return out;
  for (const auto& e : v->as_array()) {
    WireMount m;
    m.cache_name = e.get_string("cache_name");
    m.sandbox_name = e.get_string("sandbox_name");
    m.level = level_from_wire(e.get_string("level", "workflow"));
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

json::Value wire_task_to_json(const WireTask& t) {
  Object o;
  o["id"] = static_cast<std::int64_t>(t.id);
  o["kind"] = kind_to_wire(t.kind);
  o["command"] = t.command;
  o["function_name"] = t.function_name;
  o["function_args"] = t.function_args;
  o["library_name"] = t.library_name;
  o["inputs"] = mounts_to_json(t.inputs);
  o["outputs"] = mounts_to_json(t.outputs);
  Object env;
  for (const auto& [k, v] : t.env) env[k] = v;
  o["env"] = Value(std::move(env));
  o["resources"] = resources_to_json(t.resources);
  o["timeout_seconds"] = t.timeout_seconds;
  return Value(std::move(o));
}

Result<WireTask> wire_task_from_json(const json::Value& v) {
  if (!v.is_object()) return Error{Errc::protocol_error, "task must be an object"};
  WireTask t;
  t.id = static_cast<TaskId>(v.get_int("id"));
  t.kind = kind_from_wire(v.get_string("kind", "command"));
  t.command = v.get_string("command");
  t.function_name = v.get_string("function_name");
  t.function_args = v.get_string("function_args");
  t.library_name = v.get_string("library_name");
  t.inputs = mounts_from_json(v.find("inputs"));
  t.outputs = mounts_from_json(v.find("outputs"));
  if (const Value* env = v.find("env"); env && env->is_object()) {
    for (const auto& [k, val] : env->as_object()) {
      if (val.is_string()) t.env[k] = val.as_string();
    }
  }
  if (const Value* r = v.find("resources")) t.resources = resources_from_json(*r);
  t.timeout_seconds = v.get_double("timeout_seconds", 0);
  return t;
}

WireTask to_wire(const TaskSpec& spec) {
  WireTask t;
  t.id = spec.id;
  t.kind = spec.kind;
  t.command = spec.command;
  t.function_name = spec.function_name;
  t.function_args = spec.function_args;
  t.library_name = spec.library_name;
  t.env = spec.env;
  t.resources = spec.resources;
  t.timeout_seconds = spec.timeout_seconds;
  for (const auto& m : spec.inputs) {
    t.inputs.push_back({m.file ? m.file->cache_name : "", m.sandbox_name,
                        m.file ? m.file->cache : CacheLevel::workflow});
  }
  for (const auto& m : spec.outputs) {
    t.outputs.push_back({m.file ? m.file->cache_name : "", m.sandbox_name,
                         m.file ? m.file->cache : CacheLevel::workflow});
  }
  return t;
}

// ----------------------------------------------------------- encode

namespace {

struct Encoder {
  Value operator()(const PutMsg& m) const {
    Object o;
    o["type"] = "put";
    o["transfer_id"] = m.transfer_id;
    o["cache_name"] = m.cache_name;
    o["level"] = level_to_wire(m.level);
    o["is_dir"] = m.is_dir;
    return Value(std::move(o));
  }
  Value operator()(const FetchMsg& m) const {
    Object o;
    o["type"] = "fetch";
    o["transfer_id"] = m.transfer_id;
    o["cache_name"] = m.cache_name;
    o["level"] = level_to_wire(m.level);
    o["source"] = source_to_json(m.source, m.source_addr);
    if (m.prefetch) o["prefetch"] = true;
    if (m.pin) o["pin"] = true;
    return Value(std::move(o));
  }
  Value operator()(const MiniTaskMsg& m) const {
    Object o;
    o["type"] = "mini_task";
    o["transfer_id"] = m.transfer_id;
    o["cache_name"] = m.cache_name;
    o["level"] = level_to_wire(m.level);
    o["task"] = wire_task_to_json(m.task);
    return Value(std::move(o));
  }
  Value operator()(const RunTaskMsg& m) const {
    Object o;
    o["type"] = "run_task";
    o["task"] = wire_task_to_json(m.task);
    return Value(std::move(o));
  }
  Value operator()(const UnlinkMsg& m) const {
    Object o;
    o["type"] = "unlink";
    o["cache_name"] = m.cache_name;
    return Value(std::move(o));
  }
  Value operator()(const CancelTransferMsg& m) const {
    Object o;
    o["type"] = "cancel_transfer";
    o["transfer_id"] = m.transfer_id;
    return Value(std::move(o));
  }
  Value operator()(const SendFileMsg& m) const {
    Object o;
    o["type"] = "send_file";
    o["request_id"] = m.request_id;
    o["cache_name"] = m.cache_name;
    return Value(std::move(o));
  }
  Value operator()(const EndWorkflowMsg&) const {
    return Value(Object{{"type", Value("end_workflow")}});
  }
  Value operator()(const ShutdownMsg&) const {
    return Value(Object{{"type", Value("shutdown")}});
  }
  Value operator()(const HelloMsg& m) const {
    Object o;
    o["type"] = "hello";
    o["worker_id"] = m.worker_id;
    o["transfer_addr"] = m.transfer_addr;
    o["resources"] = resources_to_json(m.resources);
    Array cached;
    for (const auto& c : m.cached) {
      Object e;
      e["cache_name"] = c.cache_name;
      e["size"] = c.size;
      cached.emplace_back(std::move(e));
    }
    o["cached"] = Value(std::move(cached));
    return Value(std::move(o));
  }
  Value operator()(const CacheUpdateMsg& m) const {
    Object o;
    o["type"] = "cache_update";
    o["cache_name"] = m.cache_name;
    o["transfer_id"] = m.transfer_id;
    o["ok"] = m.ok;
    o["size"] = m.size;
    o["error"] = m.error;
    return Value(std::move(o));
  }
  Value operator()(const TaskDoneMsg& m) const {
    Object o;
    o["type"] = "task_done";
    o["task_id"] = static_cast<std::int64_t>(m.task_id);
    o["ok"] = m.ok;
    o["resource_exceeded"] = m.resource_exceeded;
    o["exit_code"] = m.exit_code;
    o["output"] = m.output;
    o["error"] = m.error;
    o["started_at"] = m.started_at;
    o["finished_at"] = m.finished_at;
    Array outs;
    for (const auto& r : m.outputs) {
      Object e;
      e["cache_name"] = r.cache_name;
      e["size"] = r.size;
      outs.emplace_back(std::move(e));
    }
    o["outputs"] = Value(std::move(outs));
    return Value(std::move(o));
  }
  Value operator()(const LibraryReadyMsg& m) const {
    Object o;
    o["type"] = "library_ready";
    o["task_id"] = static_cast<std::int64_t>(m.task_id);
    o["library_name"] = m.library_name;
    Array fns;
    for (const auto& f : m.functions) fns.emplace_back(f);
    o["functions"] = Value(std::move(fns));
    return Value(std::move(o));
  }
  Value operator()(const GetMsg& m) const {
    Object o;
    o["type"] = "get";
    o["cache_name"] = m.cache_name;
    return Value(std::move(o));
  }
  Value operator()(const ObjMsg& m) const {
    Object o;
    o["type"] = "obj";
    o["request_id"] = m.request_id;
    o["cache_name"] = m.cache_name;
    o["ok"] = m.ok;
    o["is_dir"] = m.is_dir;
    o["error"] = m.error;
    o["digest"] = m.digest;
    return Value(std::move(o));
  }
  Value operator()(const HeartbeatMsg&) const {
    return Value(Object{{"type", Value("heartbeat")}});
  }
};

}  // namespace

json::Value encode(const AnyMessage& msg) { return std::visit(Encoder{}, msg); }

Result<AnyMessage> decode(const json::Value& v) {
  if (!v.is_object()) {
    return Error{Errc::protocol_error, "message must be a JSON object"};
  }
  const std::string type = v.get_string("type");

  if (type == "put") {
    PutMsg m;
    m.transfer_id = v.get_string("transfer_id");
    m.cache_name = v.get_string("cache_name");
    m.level = level_from_wire(v.get_string("level", "workflow"));
    m.is_dir = v.get_bool("is_dir");
    return AnyMessage(std::move(m));
  }
  if (type == "fetch") {
    FetchMsg m;
    m.transfer_id = v.get_string("transfer_id");
    m.cache_name = v.get_string("cache_name");
    m.level = level_from_wire(v.get_string("level", "workflow"));
    if (const auto* s = v.find("source")) {
      m.source = source_from_json(*s);
      m.source_addr = s->get_string("addr");
    }
    m.prefetch = v.get_bool("prefetch");
    m.pin = v.get_bool("pin");
    return AnyMessage(std::move(m));
  }
  if (type == "mini_task") {
    MiniTaskMsg m;
    m.transfer_id = v.get_string("transfer_id");
    m.cache_name = v.get_string("cache_name");
    m.level = level_from_wire(v.get_string("level", "workflow"));
    const auto* t = v.find("task");
    if (!t) return Error{Errc::protocol_error, "mini_task missing task"};
    VINE_TRY(m.task, wire_task_from_json(*t));
    return AnyMessage(std::move(m));
  }
  if (type == "run_task") {
    RunTaskMsg m;
    const auto* t = v.find("task");
    if (!t) return Error{Errc::protocol_error, "run_task missing task"};
    VINE_TRY(m.task, wire_task_from_json(*t));
    return AnyMessage(std::move(m));
  }
  if (type == "unlink") {
    UnlinkMsg m;
    m.cache_name = v.get_string("cache_name");
    return AnyMessage(std::move(m));
  }
  if (type == "cancel_transfer") {
    CancelTransferMsg m;
    m.transfer_id = v.get_string("transfer_id");
    return AnyMessage(std::move(m));
  }
  if (type == "send_file") {
    SendFileMsg m;
    m.request_id = v.get_string("request_id");
    m.cache_name = v.get_string("cache_name");
    return AnyMessage(std::move(m));
  }
  if (type == "end_workflow") return AnyMessage(EndWorkflowMsg{});
  if (type == "shutdown") return AnyMessage(ShutdownMsg{});
  if (type == "heartbeat") return AnyMessage(HeartbeatMsg{});
  if (type == "hello") {
    HelloMsg m;
    m.worker_id = v.get_string("worker_id");
    m.transfer_addr = v.get_string("transfer_addr");
    if (const auto* r = v.find("resources")) m.resources = resources_from_json(*r);
    if (const auto* c = v.find("cached"); c && c->is_array()) {
      for (const auto& e : c->as_array()) {
        m.cached.push_back({e.get_string("cache_name"), e.get_int("size")});
      }
    }
    return AnyMessage(std::move(m));
  }
  if (type == "cache_update") {
    CacheUpdateMsg m;
    m.cache_name = v.get_string("cache_name");
    m.transfer_id = v.get_string("transfer_id");
    m.ok = v.get_bool("ok", true);
    m.size = v.get_int("size", -1);
    m.error = v.get_string("error");
    return AnyMessage(std::move(m));
  }
  if (type == "task_done") {
    TaskDoneMsg m;
    m.task_id = static_cast<TaskId>(v.get_int("task_id"));
    m.ok = v.get_bool("ok");
    m.resource_exceeded = v.get_bool("resource_exceeded");
    m.exit_code = static_cast<int>(v.get_int("exit_code", -1));
    m.output = v.get_string("output");
    m.error = v.get_string("error");
    m.started_at = v.get_double("started_at");
    m.finished_at = v.get_double("finished_at");
    if (const auto* outs = v.find("outputs"); outs && outs->is_array()) {
      for (const auto& e : outs->as_array()) {
        m.outputs.push_back({e.get_string("cache_name"), e.get_int("size")});
      }
    }
    return AnyMessage(std::move(m));
  }
  if (type == "library_ready") {
    LibraryReadyMsg m;
    m.task_id = static_cast<TaskId>(v.get_int("task_id"));
    m.library_name = v.get_string("library_name");
    if (const auto* fns = v.find("functions"); fns && fns->is_array()) {
      for (const auto& f : fns->as_array()) {
        if (f.is_string()) m.functions.push_back(f.as_string());
      }
    }
    return AnyMessage(std::move(m));
  }
  if (type == "get") {
    GetMsg m;
    m.cache_name = v.get_string("cache_name");
    return AnyMessage(std::move(m));
  }
  if (type == "obj") {
    ObjMsg m;
    m.request_id = v.get_string("request_id");
    m.cache_name = v.get_string("cache_name");
    m.ok = v.get_bool("ok");
    m.is_dir = v.get_bool("is_dir");
    m.error = v.get_string("error");
    m.digest = v.get_string("digest");
    return AnyMessage(std::move(m));
  }
  return Error{Errc::protocol_error, "unknown message type: " + type};
}

}  // namespace vine::proto
