#include "manager/manager.hpp"

#include <algorithm>
#include <filesystem>

#include "archive/vpak.hpp"
#include "common/log.hpp"
#include "common/uuid.hpp"
#include "files/naming.hpp"
#include "fsutil/fsutil.hpp"
#include "net/channel.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "task/task_hash.hpp"

namespace vine {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

using control::TransferClass;

Manager::Manager(ManagerConfig config)
    : config_(std::move(config)),
      plane_({.sched = config_.sched, .redundancy = config_.redundancy,
              .seed = config_.seed},
             *this, stats_) {
  if (!config_.fetcher) config_.fetcher = std::make_shared<FileUrlFetcher>();
  metrics_.expose("manager.tasks_done", &stats_.tasks_done);
  metrics_.expose("manager.tasks_failed", &stats_.tasks_failed);
  metrics_.expose("manager.transfers_from_manager", &stats_.transfers_from_manager);
  metrics_.expose("manager.transfers_from_url", &stats_.transfers_from_url);
  metrics_.expose("manager.transfers_from_peers", &stats_.transfers_from_peers);
  metrics_.expose("manager.mini_tasks_run", &stats_.mini_tasks_run);
  metrics_.expose("manager.bytes_from_manager", &stats_.bytes_from_manager);
  metrics_.expose("manager.bytes_from_url", &stats_.bytes_from_url);
  metrics_.expose("manager.bytes_from_peers", &stats_.bytes_from_peers);
  metrics_.expose("manager.cache_hits", &stats_.cache_hits);
  metrics_.expose("manager.sched_passes", &stats_.sched_passes);
  metrics_.expose("manager.tasks_scanned", &stats_.tasks_scanned);
  metrics_.expose("manager.transfer_failures", &stats_.transfer_failures);
  metrics_.expose("manager.recoveries", &stats_.recoveries);
  metrics_.expose("manager.workers_lost", &stats_.workers_lost);
  metrics_.expose("manager.workers_evicted", &stats_.workers_evicted);
  metrics_.expose("manager.transfers_prefetch", &stats_.transfers_prefetch);
  metrics_.expose("manager.bytes_prefetch", &stats_.bytes_prefetch);
  metrics_.expose("sched.prefetch_issued", &stats_.prefetch_issued);
  metrics_.expose("sched.prefetch_hit", &stats_.prefetch_hits);
  metrics_.expose("sched.prefetch_cancelled", &stats_.prefetch_cancelled);
  metrics_.expose("sched.prefetch_wasted_bytes", &stats_.prefetch_wasted_bytes);
  // Gated on the feature: exposing these unconditionally would grow the
  // counters events of every replication-off trace.
  if (config_.redundancy.enabled) {
    metrics_.expose("manager.replications", &stats_.replications);
    metrics_.expose("manager.replication_bytes", &stats_.replication_bytes);
    metrics_.expose("manager.replica_repairs", &stats_.replica_repairs);
    metrics_.expose("manager.recoveries_replicated",
                    &stats_.recoveries_replicated);
  }
}

void Manager::emit(obs::Event ev) {
  if (config_.trace) config_.trace->emit("manager", std::move(ev));
}

void Manager::emit_counters() {
  if (!config_.trace) return;
  config_.trace->emit("manager",
                      obs::Event::make_counters(clock_.now(), metrics_.snapshot()));
  config_.trace->flush();
}

Manager::~Manager() { shutdown(); }

Status Manager::start() {
  auto on_accept = [this](std::unique_ptr<Endpoint> ep) {
    add_connection(std::move(ep));
  };
  if (config_.listen.empty()) {
    VINE_TRY(listener_, ChannelFabric::instance().listen(
                            "mgr-" + config_.name + "-" + generate_token(6),
                            on_accept));
  } else if (config_.listen == "tcp") {
    VINE_TRY(listener_, tcp_listen(0, on_accept));
    // Data-plane gauges, read from the reactor at snapshot time. Only
    // wired up when this manager actually runs the TCP transport —
    // touching the reactor would otherwise spin up its thread for
    // nothing. Runtime golden traces strip `counters` events, so the
    // extra names never perturb trace comparisons.
    metrics_.expose_fn("net.reactor_wakeups",
                       [] { return Reactor::instance().stats().wakeups; });
    metrics_.expose_fn("net.frames_in",
                       [] { return Reactor::instance().stats().frames_in; });
    metrics_.expose_fn("net.frames_out",
                       [] { return Reactor::instance().stats().frames_out; });
    metrics_.expose_fn("net.bytes_in",
                       [] { return Reactor::instance().stats().bytes_in; });
    metrics_.expose_fn("net.bytes_out",
                       [] { return Reactor::instance().stats().bytes_out; });
    metrics_.expose_fn("net.sendfile_bytes", [] {
      return Reactor::instance().stats().sendfile_bytes;
    });
    metrics_.expose_fn("net.writev_calls",
                       [] { return Reactor::instance().stats().writev_calls; });
    metrics_.expose_fn("net.conns_open",
                       [] { return Reactor::instance().stats().conns_open; });
  } else if (config_.listen.rfind("chan:", 0) == 0) {
    VINE_TRY(listener_, ChannelFabric::instance().listen(
                            config_.listen.substr(5), on_accept));
  } else {
    return Error{Errc::invalid_argument, "bad listen spec: " + config_.listen};
  }
  address_ = listener_->address();
  VINE_LOG_INFO("manager", "%s listening on %s", config_.name.c_str(),
                address_.c_str());
  return Status::success();
}

void Manager::add_connection(std::unique_ptr<Endpoint> ep) {
  MutexLock lock(conn_mutex_);
  std::string conn_id = "c" + std::to_string(next_conn_++);
  auto conn = std::make_unique<Connection>();
  conn->conn_id = conn_id;
  conn->endpoint = std::shared_ptr<Endpoint>(std::move(ep));
  // Frames go straight into the inbox from the transport's delivery
  // thread; the terminal error is the connection's death notice.
  conn->endpoint->set_receiver([this, conn_id](Result<Frame> frame) {
    if (frame.ok()) {
      inbox_.push(Event{conn_id, std::move(*frame), false});
    } else {
      inbox_.push(Event{conn_id, {}, true});
    }
  });
  connections_.emplace(conn_id, std::move(conn));
}

// ------------------------------------------------------------ declarations

FileRef Manager::register_file(std::shared_ptr<FileDecl> decl) {
  decl->id = next_file_id_++;
  if (!decl->cache_name.empty()) {
    level_of_[decl->cache_name] = decl->cache;
  }
  FileRef ref = decl;
  files_.emplace(decl->id, std::move(decl));
  return ref;
}

Result<FileRef> Manager::declare_local(const std::string& path, CacheLevel level) {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::local;
  decl->cache = level;
  decl->local_path = path;
  VINE_TRY(decl->cache_name, local_file_cache_name(path));
  auto size = tree_size(path);
  decl->size_hint = size.ok() ? *size : -1;
  return register_file(std::move(decl));
}

FileRef Manager::declare_buffer(std::string content, CacheLevel level) {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::buffer;
  decl->cache = level;
  decl->cache_name = buffer_cache_name(content);
  decl->size_hint = static_cast<std::int64_t>(content.size());
  decl->buffer = std::move(content);
  return register_file(std::move(decl));
}

Result<FileRef> Manager::declare_url(const std::string& url, CacheLevel level) {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::url;
  decl->cache = level;
  decl->url = url;
  VINE_TRY(decl->cache_name, url_cache_name(url, *config_.fetcher));
  auto meta = config_.fetcher->head(url);
  decl->size_hint = meta.ok() ? meta->size : -1;
  return register_file(std::move(decl));
}

FileRef Manager::declare_temp() {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::temp;
  decl->cache = CacheLevel::workflow;
  // Named at submit() from the producing task's hash (paper §3.2).
  return register_file(std::move(decl));
}

Result<FileRef> Manager::declare_mini_task(TaskSpec mini,
                                           const std::string& output_name,
                                           CacheLevel level) {
  if (mini.kind != TaskKind::mini) mini.kind = TaskKind::mini;
  for (const auto& in : mini.inputs) {
    if (!in.file || in.file->cache_name.empty()) {
      return Error{Errc::invalid_argument,
                   "mini-task inputs must be declared files with names"};
    }
  }
  std::string hash = task_spec_hash(mini);

  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::mini_task;
  decl->cache = level;
  decl->cache_name = task_output_cache_name(hash, output_name);

  // The mini spec's first output names the produced sandbox path; the
  // worker adopts it under this decl's cache name (carried in MiniTaskMsg,
  // not in the mount). The mount must NOT hold a FileRef back to `decl`:
  // decl -> mini_task -> outputs[0].file -> decl is a shared_ptr cycle that
  // leaks every mini-task declaration.
  auto spec = std::make_shared<TaskSpec>(std::move(mini));
  spec->outputs.clear();
  spec->outputs.push_back({nullptr, output_name});
  decl->mini_task = spec;
  return register_file(std::move(decl));
}

Result<FileRef> Manager::declare_unpack(const FileRef& archive, CacheLevel level) {
  if (!archive || archive->cache_name.empty()) {
    return Error{Errc::invalid_argument, "declare_unpack needs a declared file"};
  }
  TaskSpec mini;
  mini.kind = TaskKind::mini;
  mini.function_name = "vine.unpack";
  mini.function_args = R"({"archive":"input.vpak","out":"unpacked"})";
  mini.inputs.push_back({archive, "input.vpak"});
  return declare_mini_task(std::move(mini), "unpacked", level);
}

// ------------------------------------------------------------ tasks

Result<TaskId> Manager::submit(TaskSpec spec) {
  spec.id = next_task_id_++;
  if (spec.max_attempts < 1) spec.max_attempts = 1;

  for (const auto& in : spec.inputs) {
    if (!in.file) {
      return Error{Errc::invalid_argument, "task input has no declared file"};
    }
    if (in.file->cache_name.empty()) {
      return Error{Errc::invalid_argument,
                   "task input " + in.sandbox_name +
                       " is an unnamed temp not yet produced by any task"};
    }
  }

  // Name temp outputs from the producing task's hash (paper §3.2).
  std::string hash;
  for (auto& out : spec.outputs) {
    if (!out.file) {
      return Error{Errc::invalid_argument, "task output has no declared file"};
    }
    if (out.file->cache_name.empty()) {
      if (hash.empty()) hash = task_spec_hash(spec);
      auto it = files_.find(out.file->id);
      if (it == files_.end()) {
        return Error{Errc::invalid_argument, "output file not declared here"};
      }
      it->second->cache_name = task_output_cache_name(hash, out.sandbox_name);
      it->second->producer_task = spec.id;
      level_of_[it->second->cache_name] = it->second->cache;
    }
  }

  const TaskId id = spec.id;
  TaskRecord& record = records_[id];
  record.report.id = id;
  record.report.submitted_at = clock_.now();
  std::string category = task_kind_name(spec.kind);
  plane_.submit(std::move(spec), std::move(category));
  pass_due_ = true;
  return id;
}

Result<TaskReport> Manager::wait(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  if (!pump_until(deadline, [this] { return !completed_.empty(); })) {
    return Error{Errc::timeout, "no task completed in time"};
  }
  TaskReport r = std::move(completed_.front());
  completed_.pop_front();
  return r;
}

bool Manager::idle() const { return outstanding() == 0; }

std::size_t Manager::outstanding() const {
  std::size_t n = 0;
  for (const auto& [_, t] : plane_.tasks()) {
    if (t.is_library) continue;
    if (t.state != TaskState::done && t.state != TaskState::failed) ++n;
  }
  return n;
}

// ------------------------------------------------------------ serverless

Status Manager::install_library(const std::string& library_name,
                                Resources per_instance, std::vector<Mount> inputs) {
  for (const auto& in : inputs) {
    if (!in.file || in.file->cache_name.empty()) {
      return Error{Errc::invalid_argument, "library inputs must be declared files"};
    }
  }
  LibraryDef def{library_name, per_instance, std::move(inputs)};
  for (const auto& [worker_id, _] : workers_) {
    install_library_on(def, worker_id);
  }
  libraries_.push_back(std::move(def));
  return Status::success();
}

void Manager::install_library_on(const LibraryDef& def, const WorkerId& worker) {
  TaskSpec spec;
  spec.id = next_task_id_++;
  spec.kind = TaskKind::library;
  spec.library_name = def.name;
  spec.inputs = def.inputs;
  spec.resources = def.per_instance;
  spec.pinned_worker = worker;

  TaskRecord& record = records_[spec.id];
  record.report.id = spec.id;
  record.report.submitted_at = clock_.now();
  plane_.submit(std::move(spec), task_kind_name(TaskKind::library),
                /*is_library=*/true);
}

TaskSpec Manager::function_call(const std::string& library,
                                const std::string& function, std::string args,
                                Resources resources) {
  TaskSpec spec;
  spec.kind = TaskKind::function_call;
  spec.library_name = library;
  spec.function_name = function;
  spec.function_args = std::move(args);
  spec.resources = resources;
  return spec;
}

int Manager::library_instances(const std::string& library_name) const {
  int n = 0;
  for (const WorkerSnapshot& w : plane_.workers()) {
    n += w.libraries.count(library_name);
  }
  return n;
}

// ------------------------------------------------------------ data access

Result<std::string> Manager::fetch_file(const FileRef& file,
                                        std::chrono::milliseconds timeout) {
  if (!file) return Error{Errc::invalid_argument, "null file"};
  if (file->kind == FileKind::buffer) return file->buffer;
  if (file->kind == FileKind::local) {
    std::error_code ec;
    if (fs::is_directory(file->local_path, ec)) {
      TempDir tmp("vine-mgr-pack");
      auto ar = tmp.path() / "dir.vpak";
      VINE_TRY_STATUS(vpak_pack_tree(file->local_path, ar));
      return read_file(ar);
    }
    return read_file(file->local_path);
  }

  const std::string& name = file->cache_name;
  if (name.empty()) {
    return Error{Errc::invalid_argument, "file has no cache name yet"};
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Find (or wait for) a worker holding a present replica.
  if (!pump_until(deadline,
                  [&] { return !plane_.replicas().workers_with(name).empty(); })) {
    return Error{Errc::timeout, "no replica of " + name + " appeared"};
  }
  const WorkerId holder = plane_.replicas().workers_with(name).front();

  // The reply carries the object's bytes in the same frame.
  const std::string request_id = generate_uuid();
  send_to_worker(holder, proto::SendFileMsg{request_id, name});
  if (!pump_until(deadline, [&] { return file_replies_.count(request_id) > 0; })) {
    return Error{Errc::timeout, "send_file reply timed out"};
  }
  Result<std::string> reply = std::move(file_replies_.extract(request_id).mapped());
  if (!reply.ok()) {
    return Error{Errc::not_found,
                 "worker could not send " + name + ": " + reply.error().message};
  }
  return reply;
}

// ------------------------------------------------------------ cluster

Status Manager::wait_for_workers(int count, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  if (pump_until(deadline, [&] { return worker_count() >= count; })) {
    return Status::success();
  }
  return Error{Errc::timeout, "only " + std::to_string(worker_count()) + " of " +
                                  std::to_string(count) + " workers joined"};
}

Status Manager::wait_for_library(const std::string& library_name, int count,
                                 std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  if (pump_until(deadline,
                 [&] { return library_instances(library_name) >= count; })) {
    return Status::success();
  }
  return Error{Errc::timeout,
               "only " + std::to_string(library_instances(library_name)) + " of " +
                   std::to_string(count) + " instances of " + library_name +
                   " ready"};
}

std::vector<WorkerSnapshot> Manager::workers_snapshot() const {
  std::vector<WorkerSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& [id, _] : workers_) {
    if (const WorkerSnapshot* snap = plane_.worker(id)) out.push_back(*snap);
  }
  return out;
}

void Manager::end_workflow() {
  for (const auto& [worker_id, _] : workers_) {
    send_to_worker(worker_id, proto::EndWorkflowMsg{});
  }
  // Drop replica records for everything below worker lifetime, and forget
  // library deployments (instances were just stopped).
  for (const auto& [name, level] : level_of_) {
    if (level != CacheLevel::worker) plane_.drop_file(name);
  }
  plane_.forget_libraries();
  emit_counters();
  maybe_audit("manager.end_workflow");
}

void Manager::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  emit_counters();
  maybe_audit("manager.shutdown");

  for (const auto& [worker_id, w] : workers_) {
    (void)w.endpoint->send_json(proto::encode(proto::AnyMessage(proto::ShutdownMsg{})));
  }
  // After close() returns no connection can be added behind our back.
  if (listener_) listener_->close();
  inbox_.close();

  // Extract the connections under the lock, then close and drop them
  // outside it: a TCP endpoint's teardown waits for the reactor thread,
  // which takes conn_mutex_ to register new connections.
  std::map<std::string, std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(conn_mutex_);
    conns.swap(connections_);
  }
  for (auto& [_, conn] : conns) conn->endpoint->close();
}

// ------------------------------------------------------------ pumping

bool Manager::pump_until(std::chrono::steady_clock::time_point deadline,
                         const std::function<bool()>& done) {
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    pump(20ms);
  }
  return true;
}

void Manager::pump(std::chrono::milliseconds timeout) {
  // An owed pass runs now; only an idle manager blocks for events.
  auto ev = pass_due_ ? inbox_.try_pop() : inbox_.pop(timeout);
  while (ev) {
    if (handle_event(std::move(*ev))) pass_due_ = true;
    ev = inbox_.try_pop();
  }
  if (config_.heartbeat_deadline_ms > 0 && evict_silent_workers()) pass_due_ = true;
  if (pass_due_ || !plane_.ready().empty()) {
    pass_due_ = false;
    plane_.schedule_pass();
  }
  if (!replication_goals_.empty()) process_replication_requests();
}

bool Manager::evict_silent_workers() {
  const double deadline_s = config_.heartbeat_deadline_ms / 1000.0;
  const double now = clock_.now();
  // handle_worker_lost mutates workers_; collect the overdue set first.
  std::vector<std::string> overdue;
  for (const auto& [id, w] : workers_) {
    if (now - w.last_heard > deadline_s) {
      VINE_LOG_WARN("manager", "worker %s silent for %.1fs; evicting",
                    id.c_str(), now - w.last_heard);
      overdue.push_back(w.conn_id);
    }
  }
  for (const std::string& conn_id : overdue) {
    ++stats_.workers_evicted;
    handle_worker_lost(conn_id, /*evicted=*/true);
  }
  return !overdue.empty();
}

bool Manager::handle_event(Event ev) {
  if (ev.closed) {
    handle_worker_lost(ev.conn_id);
    return true;
  }
  auto msg = proto::decode(ev.frame.msg);
  if (!msg.ok()) {
    VINE_LOG_WARN("manager", "bad message from %s: %s", ev.conn_id.c_str(),
                  msg.error().message.c_str());
    return false;
  }

  // Resolve the sending worker (if identified).
  WorkerId worker;
  {
    MutexLock lock(conn_mutex_);
    auto it = connections_.find(ev.conn_id);
    if (it != connections_.end()) worker = it->second->worker_id;
  }

  // Any frame is proof of life; the heartbeat exists so idle workers still
  // produce one within every deadline window.
  if (!worker.empty()) {
    auto wit = workers_.find(worker);
    if (wit != workers_.end() && wit->second.conn_id == ev.conn_id) {
      wit->second.last_heard = clock_.now();
    }
  }

  return std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::HelloMsg>) {
          handle_hello(ev.conn_id, m);
        } else if constexpr (std::is_same_v<T, proto::CacheUpdateMsg>) {
          if (!worker.empty()) handle_cache_update(worker, m);
        } else if constexpr (std::is_same_v<T, proto::TaskDoneMsg>) {
          if (!worker.empty()) handle_task_done(worker, m);
        } else if constexpr (std::is_same_v<T, proto::LibraryReadyMsg>) {
          if (!worker.empty()) {
            plane_.library_ready(m.task_id, worker, m.library_name);
            VINE_LOG_INFO("manager", "library %s ready on %s",
                          m.library_name.c_str(), worker.c_str());
          }
        } else if constexpr (std::is_same_v<T, proto::ObjMsg>) {
          // A send_file reply; its frame carries the object's bytes.
          if (!m.ok) {
            file_replies_.emplace(m.request_id, Error{Errc::not_found, m.error});
          } else if (ev.frame.kind != Frame::Kind::blob) {
            file_replies_.emplace(m.request_id,
                                  Error{Errc::protocol_error, "reply without bytes"});
          } else {
            file_replies_.emplace(m.request_id, std::move(ev.frame.data));
          }
          return false;
        } else if constexpr (std::is_same_v<T, proto::HeartbeatMsg>) {
          return false;  // liveness was refreshed above
        } else {
          VINE_LOG_WARN("manager", "unexpected message type from %s",
                        ev.conn_id.c_str());
          return false;
        }
        return true;
      },
      *msg);
}

void Manager::handle_hello(const std::string& conn_id, const proto::HelloMsg& msg) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lock(conn_mutex_);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    it->second->worker_id = msg.worker_id;
    ep = it->second->endpoint;
  }

  WorkerState& ws = workers_[msg.worker_id];
  ws.endpoint = std::move(ep);
  ws.conn_id = conn_id;
  ws.last_heard = clock_.now();
  // A re-hello resets the worker's snapshot in place.
  WorkerSnapshot snap;
  snap.id = msg.worker_id;
  snap.addr = conn_id;
  snap.transfer_addr = msg.transfer_addr;
  snap.total = msg.resources;
  plane_.join_worker(std::move(snap));
  emit(obs::Event::make_worker_join(clock_.now(), msg.worker_id));

  // The worker's persistent cache becomes visible replicas immediately —
  // this is what makes hot-cache runs skip staging (Figure 9b).
  for (const auto& obj : msg.cached) {
    plane_.add_replica(obj.cache_name, msg.worker_id, obj.size);
    emit(obs::Event::make_cache_insert(clock_.now(), msg.worker_id,
                                       obj.cache_name, obj.size, "preload"));
  }

  // Deploy any installed libraries to the newcomer.
  for (const auto& def : libraries_) {
    install_library_on(def, msg.worker_id);
  }

  VINE_LOG_INFO("manager", "worker %s joined (%s, %zu cached)",
                msg.worker_id.c_str(), msg.resources.to_string().c_str(),
                msg.cached.size());
}

void Manager::handle_cache_update(const WorkerId& worker,
                                  const proto::CacheUpdateMsg& msg) {
  // A "cancelled" reply is the worker honoring a cancel_transfer for a
  // stale prefetch. The worker's CacheStore traces the cache_insert /
  // cache_evict for this update itself; the manager records only the
  // transfer completion.
  const bool cancelled = !msg.ok && msg.error == "cancelled";
  auto closed = plane_.transfer_done(msg.transfer_id, msg.cache_name, worker,
                                     msg.ok, msg.size, cancelled);
  if (!closed) return;
  const TransferRecord& rec = closed->record;
  const std::int64_t bytes = std::max<std::int64_t>(msg.size, 0);
  emit(obs::Event::make_transfer_end(
      clock_.now(), msg.cache_name, control::transfer_label(closed->cls, rec.source),
      control::source_key(rec.source), worker, worker,
      msg.ok ? bytes : (cancelled ? 0 : -1), msg.transfer_id, msg.ok,
      msg.ok ? std::string() : msg.error));
  if (!msg.ok) {
    if (closed->cls != TransferClass::prefetch && closed->cls != TransferClass::replica) {
      VINE_LOG_WARN("manager", "transfer of %s to %s failed: %s",
                    msg.cache_name.c_str(), worker.c_str(), msg.error.c_str());
    }
    return;
  }
  if (closed->cls == TransferClass::materialize) {
    ++stats_.mini_tasks_run;  // materialized in place by a mini-task
  } else if (closed->cls == TransferClass::critical &&
             rec.source.kind == TransferSource::Kind::url) {
    ++stats_.transfers_from_url;
    stats_.bytes_from_url += bytes;
  }
}

void Manager::finish_task(TaskRecord& record, TaskReport report) {
  if (report.state == TaskState::done) ++stats_.tasks_done;
  else ++stats_.tasks_failed;
  record.report = report;
  // Re-runs triggered by lost-temp recovery already reported once; the
  // application must not see a second completion.
  const control::TaskEntry* task = plane_.task(report.id);
  if (task && !task->is_library && !record.report_delivered) {
    completed_.push_back(std::move(report));
  }
  record.report_delivered = true;
}

void Manager::handle_task_done(const WorkerId& worker, const proto::TaskDoneMsg& msg) {
  control::TaskEntry* task = plane_.task(msg.task_id);
  auto rit = records_.find(msg.task_id);
  if (task == nullptr || rit == records_.end()) return;
  TaskRecord& record = rit->second;
  VINE_LOG_DEBUG("manager", "task %llu done on %s ok=%d rex=%d err=%s",
                 static_cast<unsigned long long>(msg.task_id), worker.c_str(),
                 msg.ok, msg.resource_exceeded, msg.error.c_str());
  // Outputs were announced via cache_update already; the plane records them
  // again in case the messages raced.
  std::vector<control::ProducedFile> produced;
  for (const auto& out : msg.outputs) produced.push_back({out.cache_name, out.size});
  const double runtime_s = std::max(0.0, msg.finished_at - msg.started_at);

  TaskReport report = record.report;
  report.exit_code = msg.exit_code;
  report.worker_id = worker;
  if (msg.ok) {
    plane_.task_finished(msg.task_id, worker, TaskState::done, runtime_s, produced);
    report.state = TaskState::done;
    report.output = msg.output;
    report.attempts = record.attempts + 1;
    report.started_at = msg.started_at;
    report.finished_at = msg.finished_at;
    finish_task(record, std::move(report));

    // Task-lifetime inputs are dead now; reclaim worker storage.
    if (config_.unlink_task_level_inputs) {
      for (const auto& in : task->spec.inputs) {
        if (in.file && in.file->cache == CacheLevel::task) {
          send_to_worker(worker, proto::UnlinkMsg{in.file->cache_name});
          plane_.drop_replica(in.file->cache_name, worker);
        }
      }
    }
    return;
  }

  // Failure path: maybe grow the allocation, maybe retry, maybe give up. The
  // plane releases the old allocation before the grown one applies.
  ++record.attempts;
  Resources resources = task->spec.resources;
  if (msg.resource_exceeded) {
    const WorkerSnapshot* snap = plane_.worker(worker);
    resources = resources.grown(snap ? snap->total : resources.grown(resources));
  }
  if (record.attempts < task->spec.max_attempts) {
    plane_.task_finished(msg.task_id, worker, TaskState::ready, runtime_s, produced);
    task->spec.resources = resources;
    return;
  }
  plane_.task_finished(msg.task_id, worker, TaskState::failed, runtime_s, produced);
  task->spec.resources = resources;
  report.state = TaskState::failed;
  report.error_message = msg.error;
  report.attempts = record.attempts;
  finish_task(record, std::move(report));
}

void Manager::handle_worker_lost(const std::string& conn_id, bool evicted) {
  // Extract the connection under the lock and release it outside: a TCP
  // endpoint's teardown waits for the reactor thread, which takes
  // conn_mutex_ to register new connections.
  std::unique_ptr<Connection> conn;
  {
    MutexLock lock(conn_mutex_);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    conn = std::move(it->second);
    connections_.erase(it);
  }
  conn->endpoint->close();
  const WorkerId worker = conn->worker_id;
  if (worker.empty()) return;  // never said hello

  // A re-hello may have moved the worker id to a newer connection; only the
  // connection the worker registry points at may tear the worker down.
  auto reg = workers_.find(worker);
  if (reg == workers_.end() || reg->second.conn_id != conn_id) return;
  workers_.erase(reg);

  ++stats_.workers_lost;
  VINE_LOG_WARN("manager", "worker %s disconnected", worker.c_str());
  // The transfers the worker took down close before the membership event,
  // so begin/end pairing in the trace stays exact.
  for (const control::ClosedTransfer& dropped : plane_.worker_lost(worker, "worker_lost")) {
    const TransferRecord& rec = dropped.record;
    emit(obs::Event::make_transfer_end(
        clock_.now(), rec.cache_name, control::transfer_label(dropped.cls, rec.source),
        control::source_key(rec.source), rec.dest, rec.dest, -1, rec.uuid,
        /*ok=*/false, "worker_lost"));
  }
  if (evicted) {
    emit(obs::Event::make_worker_evicted(clock_.now(), worker, "heartbeat"));
  } else {
    emit(obs::Event::make_worker_lost(clock_.now(), worker, "disconnect"));
  }
  maybe_audit("manager.worker_lost");
}

void Manager::maybe_audit(const char* where) const {
  if (!audits_enabled()) return;
  AuditReport report;
  audit(report);
  enforce_clean(report, where);
}

Status Manager::replicate_file(const FileRef& file, int copies) {
  if (!file) return Error{Errc::invalid_argument, "null file"};
  if (file->cache_name.empty()) {
    return Error{Errc::invalid_argument, "file has no cache name yet"};
  }
  if (copies < 1) return Error{Errc::invalid_argument, "copies must be >= 1"};
  replication_goals_[file->id] = copies;
  return Status::success();
}

void Manager::process_replication_requests() {
  const FileReplicaTable& replicas = plane_.replicas();
  for (auto it = replication_goals_.begin(); it != replication_goals_.end();) {
    auto fit = files_.find(it->first);
    if (fit == files_.end()) {
      it = replication_goals_.erase(it);
      continue;
    }
    const FileRef file = fit->second;
    int want = it->second;
    int have = replicas.present_count(file->cache_name);
    // Count pending materializations toward the goal to avoid re-issuing.
    int pending = 0;
    for (const auto& [worker_id, _] : workers_) {
      auto rep = replicas.find(file->cache_name, worker_id);
      if (rep && rep->state == ReplicaState::pending) ++pending;
    }
    if (have >= want) {
      it = replication_goals_.erase(it);
      continue;
    }
    int missing = want - have - pending;
    for (const auto& [worker_id, _] : workers_) {
      if (missing <= 0) break;
      if (replicas.find(file->cache_name, worker_id)) continue;
      // ensure_file_at issues at most one instruction per call.
      plane_.ensure_file_at(file, worker_id);
      --missing;
    }
    ++it;
  }
}

// ------------------------------------------------------------ plane effects

void Manager::send_to_worker(const WorkerId& worker, const proto::AnyMessage& msg) {
  auto it = workers_.find(worker);
  if (it == workers_.end()) return;
  auto st = it->second.endpoint->send_json(proto::encode(msg));
  if (!st.ok()) {
    VINE_LOG_WARN("manager", "send to %s failed: %s", worker.c_str(),
                  st.error().message.c_str());
  }
}

bool Manager::put_payload(const FileDecl& file, proto::PutMsg& msg,
                          std::string& payload) {
  if (file.kind == FileKind::buffer) {
    payload = file.buffer;
    return true;
  }
  Result<std::string> bytes = [&]() -> Result<std::string> {
    std::error_code ec;
    if (!fs::is_directory(file.local_path, ec)) return read_file(file.local_path);
    msg.is_dir = true;
    TempDir tmp("vine-mgr-pack");
    auto ar = tmp.path() / "dir.vpak";
    VINE_TRY_STATUS(vpak_pack_tree(file.local_path, ar));
    return read_file(ar);
  }();
  if (!bytes.ok()) {
    VINE_LOG_ERROR("manager", "cannot read %s: %s", file.local_path.c_str(),
                   bytes.error().message.c_str());
    return false;
  }
  payload = std::move(*bytes);
  return true;
}

bool Manager::start_transfer(const control::TransferOrder& order) {
  auto begin = obs::Event::make_transfer_begin(
      clock_.now(), order.cache_name, control::transfer_label(order.cls, order.source),
      control::source_key(order.source), order.dest, order.dest, order.bytes,
      order.uuid);

  if (order.cls == TransferClass::materialize) {
    begin.detail = "mini_task";
    emit(std::move(begin));
    proto::MiniTaskMsg msg;
    msg.transfer_id = order.uuid;
    msg.cache_name = order.cache_name;
    msg.level = order.file->cache;
    msg.task = proto::to_wire(*order.file->mini_task);
    send_to_worker(order.dest, msg);
    return true;
  }
  emit(std::move(begin));

  if (order.source.kind == TransferSource::Kind::manager) {
    // Push the bytes ourselves, in one frame with the put.
    proto::PutMsg msg;
    msg.transfer_id = order.uuid;
    msg.cache_name = order.cache_name;
    msg.level = order.file->cache;
    std::string payload;
    if (!put_payload(*order.file, msg, payload)) {
      emit(obs::Event::make_transfer_end(clock_.now(), order.cache_name, "manager",
                                         "", order.dest, order.dest, -1, order.uuid,
                                         /*ok=*/false, "read_failed"));
      return false;
    }
    auto it = workers_.find(order.dest);
    if (it != workers_.end()) {
      it->second.endpoint->send_blob(proto::encode(proto::AnyMessage(msg)),
                                     std::move(payload));
    }
    return true;
  }

  // URL or peer fetch instruction. Replicas are not prefetches on the
  // worker side: the copy is live state from the first byte, and the pin
  // exempts it from capacity eviction so the last copy of a temp can never
  // be squeezed out.
  proto::FetchMsg msg;
  msg.transfer_id = order.uuid;
  msg.cache_name = order.cache_name;
  msg.level = order.file->cache;
  msg.source = order.source;
  msg.prefetch = order.cls == TransferClass::prefetch;
  msg.pin = order.cls == TransferClass::replica;
  if (order.source.kind == TransferSource::Kind::worker) {
    if (const WorkerSnapshot* peer = plane_.worker(order.source.key)) {
      msg.source_addr = peer->transfer_addr;
    }
  }
  send_to_worker(order.dest, msg);
  return true;
}

void Manager::cancel_transfer(const std::string& uuid, const WorkerId& dest) {
  // Best-effort abort: the worker skips the fetch if it has not started.
  // Whichever cache_update arrives ("cancelled" or a completed transfer
  // that outran the cancel) closes the record.
  send_to_worker(dest, proto::CancelTransferMsg{uuid});
}

void Manager::dispatch(const control::TaskEntry& task) {
  VINE_LOG_DEBUG("manager", "dispatch task %llu to %s (%s)",
                 static_cast<unsigned long long>(task.spec.id), task.worker.c_str(),
                 task.spec.resources.to_string().c_str());
  proto::RunTaskMsg msg;
  msg.task = proto::to_wire(task.spec);
  send_to_worker(task.worker, msg);
  auto it = records_.find(task.spec.id);
  if (it != records_.end()) it->second.report.dispatched_at = clock_.now();
}

}  // namespace vine
