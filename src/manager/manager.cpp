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

namespace {

const char* source_kind_name(TransferSource::Kind kind) {
  switch (kind) {
    case TransferSource::Kind::manager: return "manager";
    case TransferSource::Kind::url: return "url";
    case TransferSource::Kind::worker: return "worker";
  }
  return "manager";
}

std::string source_key_of(const TransferSource& source) {
  return source.kind == TransferSource::Kind::manager ? std::string() : source.key;
}

}  // namespace

Manager::Manager(ManagerConfig config)
    : config_(std::move(config)),
      scheduler_(config_.sched, config_.seed),
      redundancy_(config_.redundancy) {
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

void Manager::emit_task_state(const TaskRuntime& task, const char* state) {
  if (!config_.trace) return;
  config_.trace->emit(
      "manager",
      obs::Event::make_task_state(clock_.now(), task.spec.id, state, task.worker,
                                  task_kind_name(task.spec.kind),
                                  task.state != TaskState::failed));
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
    // Data-plane gauges, summed over the reactor shards at snapshot time.
    // Only wired up when this manager actually runs the TCP transport —
    // touching the pool would otherwise spin up reactor threads for
    // nothing. Runtime golden traces strip `counters` events, so the
    // extra names never perturb trace comparisons.
    metrics_.expose_fn("net.reactor_wakeups",
                       [] { return ReactorPool::instance().stats().wakeups; });
    metrics_.expose_fn("net.frames_in",
                       [] { return ReactorPool::instance().stats().frames_in; });
    metrics_.expose_fn("net.frames_out",
                       [] { return ReactorPool::instance().stats().frames_out; });
    metrics_.expose_fn("net.bytes_in",
                       [] { return ReactorPool::instance().stats().bytes_in; });
    metrics_.expose_fn("net.bytes_out",
                       [] { return ReactorPool::instance().stats().bytes_out; });
    metrics_.expose_fn("net.sendfile_bytes", [] {
      return ReactorPool::instance().stats().sendfile_bytes;
    });
    metrics_.expose_fn("net.writev_calls",
                       [] { return ReactorPool::instance().stats().writev_calls; });
    metrics_.expose_fn("net.conns_open",
                       [] { return ReactorPool::instance().stats().conns_open; });
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

  TaskRuntime rt;
  rt.spec = std::move(spec);
  rt.report.id = rt.spec.id;
  rt.report.submitted_at = clock_.now();
  TaskId id = rt.spec.id;
  tasks_.emplace(id, std::move(rt));
  ready_tasks_.insert(id);
  emit_task_state(tasks_.at(id), "ready");
  return id;
}

Result<TaskReport> Manager::wait(std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (!completed_.empty()) {
      TaskReport r = std::move(completed_.front());
      completed_.pop_front();
      return r;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "no task completed in time"};
    }
    pump(20ms);
  }
}

bool Manager::idle() const { return outstanding() == 0; }

std::size_t Manager::outstanding() const {
  std::size_t n = 0;
  for (const auto& [_, t] : tasks_) {
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

  TaskRuntime rt;
  rt.spec = std::move(spec);
  rt.is_library = true;
  rt.report.id = rt.spec.id;
  rt.report.submitted_at = clock_.now();
  TaskId id = rt.spec.id;
  tasks_.emplace(id, std::move(rt));
  ready_tasks_.insert(id);
  emit_task_state(tasks_.at(id), "ready");
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
  for (const auto& [_, w] : workers_) {
    n += snapshots_[w.slot].libraries.count(library_name);
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
  auto deadline = std::chrono::steady_clock::now() + timeout;

  // Find (or wait for) a worker holding a present replica.
  WorkerId holder;
  while (true) {
    auto holders = replicas_.workers_with(name);
    if (!holders.empty()) {
      holder = holders.front();
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "no replica of " + name + " appeared"};
    }
    pump(20ms);
  }

  std::string request_id = generate_uuid();
  send_to_worker(holder, proto::SendFileMsg{request_id, name});

  // Wait for the reply header, then its blob.
  while (!file_replies_.count(request_id)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "send_file reply timed out"};
    }
    pump(20ms);
  }
  proto::FileDataMsg reply = std::move(file_replies_[request_id]);
  file_replies_.erase(request_id);
  if (!reply.ok) {
    return Error{Errc::not_found, "worker could not send " + name + ": " + reply.error};
  }
  while (!blob_stash_.count(name)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "send_file blob timed out"};
    }
    pump(20ms);
  }
  std::string data = std::move(blob_stash_[name]);
  blob_stash_.erase(name);
  return data;
}

// ------------------------------------------------------------ cluster

Status Manager::wait_for_workers(int count, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (worker_count() < count) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout,
                   "only " + std::to_string(worker_count()) + " of " +
                       std::to_string(count) + " workers joined"};
    }
    pump(20ms);
  }
  return Status::success();
}

std::vector<WorkerSnapshot> Manager::workers_snapshot() const {
  std::vector<WorkerSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& [_, w] : workers_) out.push_back(snapshots_[w.slot]);
  return out;
}

void Manager::end_workflow() {
  for (const auto& [worker_id, _] : workers_) {
    send_to_worker(worker_id, proto::EndWorkflowMsg{});
  }
  // Drop replica records for everything below worker lifetime, and forget
  // library deployments (instances were just stopped).
  for (const auto& [name, level] : level_of_) {
    if (level != CacheLevel::worker) replicas_.remove_file(name);
  }
  for (auto& snap : snapshots_) snap.libraries.clear();
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

void Manager::pump(std::chrono::milliseconds timeout) {
  auto ev = inbox_.pop(timeout);
  while (ev) {
    handle_event(std::move(*ev));
    ev = inbox_.try_pop();
  }
  if (config_.heartbeat_deadline_ms > 0) evict_silent_workers();
  schedule_pass();
  if (redundancy_.enabled()) issue_replications();
  if (!replication_goals_.empty()) process_replication_requests();
}

void Manager::evict_silent_workers() {
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
}

void Manager::handle_event(Event ev) {
  if (ev.closed) {
    handle_worker_lost(ev.conn_id);
    return;
  }
  if (ev.frame.kind == Frame::Kind::blob) {
    blob_stash_[ev.frame.tag] = std::move(ev.frame.data);
    return;
  }
  auto msg = proto::decode(ev.frame.msg);
  if (!msg.ok()) {
    VINE_LOG_WARN("manager", "bad message from %s: %s", ev.conn_id.c_str(),
                  msg.error().message.c_str());
    return;
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

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::HelloMsg>) {
          handle_hello(ev.conn_id, m);
        } else if constexpr (std::is_same_v<T, proto::CacheUpdateMsg>) {
          if (!worker.empty()) handle_cache_update(worker, m);
        } else if constexpr (std::is_same_v<T, proto::TaskDoneMsg>) {
          if (!worker.empty()) handle_task_done(worker, m);
        } else if constexpr (std::is_same_v<T, proto::LibraryReadyMsg>) {
          if (!worker.empty()) handle_library_ready(worker, m);
        } else if constexpr (std::is_same_v<T, proto::FileDataMsg>) {
          file_replies_[m.request_id] = m;
        } else if constexpr (std::is_same_v<T, proto::HeartbeatMsg>) {
          // Liveness was refreshed above; nothing else to do.
        } else {
          VINE_LOG_WARN("manager", "unexpected message type from %s",
                        ev.conn_id.c_str());
        }
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

  WorkerState ws;
  ws.endpoint = std::move(ep);
  ws.conn_id = conn_id;
  ws.last_heard = clock_.now();
  auto existing = workers_.find(msg.worker_id);
  if (existing != workers_.end()) {
    ws.slot = existing->second.slot;  // re-hello: reuse the slot
  } else {
    ws.slot = snapshots_.size();
    snapshots_.emplace_back();
  }
  WorkerSnapshot& snap = snapshots_[ws.slot];
  snap = WorkerSnapshot{};
  snap.id = msg.worker_id;
  snap.addr = conn_id;
  snap.transfer_addr = msg.transfer_addr;
  snap.total = msg.resources;
  workers_[msg.worker_id] = std::move(ws);
  emit(obs::Event::make_worker_join(clock_.now(), msg.worker_id));

  // The worker's persistent cache becomes visible replicas immediately —
  // this is what makes hot-cache runs skip staging (Figure 9b).
  for (const auto& obj : msg.cached) {
    replicas_.set_replica(obj.cache_name, msg.worker_id, ReplicaState::present,
                          obj.size);
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
  std::optional<TransferRecord> rec;
  if (!msg.transfer_id.empty()) rec = transfers_.finish(msg.transfer_id);

  // Replication fetches share the prefetch transfer class, so this branch
  // must win before the rec->prefetch one below.
  if (rec && replication_live_.erase(msg.transfer_id) > 0) {
    const std::int64_t bytes = std::max<std::int64_t>(msg.size, 0);
    emit(obs::Event::make_transfer_end(
        clock_.now(), msg.cache_name, "replica", source_key_of(rec->source),
        worker, worker, msg.ok ? bytes : -1, msg.transfer_id, msg.ok,
        msg.ok ? std::string() : msg.error));
    if (msg.ok) {
      replicas_.set_replica(msg.cache_name, worker, ReplicaState::present,
                            msg.size);
      replicas_.pin(msg.cache_name, worker);
      ++stats_.replications;
      stats_.replication_bytes += bytes;
      scheduler_.note_transfer_success(rec->source);
      redundancy_.note_replica_done(msg.cache_name, worker, true, bytes);
    } else {
      // Like prefetch failures: count it, but never blacklist the source —
      // background traffic must not poison critical-path source health.
      replicas_.remove_replica(msg.cache_name, worker);
      ++stats_.transfer_failures;
      redundancy_.note_replica_done(msg.cache_name, worker, false, bytes);
    }
    return;
  }

  if (rec && rec->prefetch) {
    // Background staging closes out of band from the critical path: a
    // completed prefetch becomes an unclaimed replica (hit-counted when a
    // placement lands on it); a "cancelled" reply is the worker honoring a
    // cancel_transfer for a stale prediction; a genuine failure counts as
    // a transfer failure but never blacklists its source or retries —
    // speculative traffic must not poison critical-path source health.
    prefetch_live_.erase(msg.transfer_id);
    const std::int64_t bytes = std::max<std::int64_t>(msg.size, 0);
    const bool cancelled = !msg.ok && msg.error == "cancelled";
    emit(obs::Event::make_transfer_end(
        clock_.now(), msg.cache_name, "prefetch", source_key_of(rec->source),
        worker, worker, msg.ok ? bytes : (cancelled ? 0 : -1), msg.transfer_id,
        msg.ok, msg.ok ? std::string() : msg.error));
    if (msg.ok) {
      replicas_.set_replica(msg.cache_name, worker, ReplicaState::present,
                            msg.size);
      ++stats_.transfers_prefetch;
      stats_.bytes_prefetch += bytes;
      prefetched_.insert({msg.cache_name, worker});
      scheduler_.note_transfer_success(rec->source);
    } else {
      replicas_.remove_replica(msg.cache_name, worker);
      if (cancelled) {
        ++stats_.prefetch_cancelled;
        stats_.prefetch_wasted_bytes += bytes;
      } else {
        ++stats_.transfer_failures;
      }
    }
    return;
  }

  // Trace note: the worker's CacheStore emits the cache_insert/cache_evict
  // for this update from its own vantage point (shared sink in a
  // LocalCluster); the manager records only the transfer completion.
  if (rec) {
    emit(obs::Event::make_transfer_end(
        clock_.now(), msg.cache_name, source_kind_name(rec->source.kind),
        source_key_of(rec->source), worker, worker,
        msg.ok ? std::max<std::int64_t>(msg.size, 0) : -1, msg.transfer_id,
        msg.ok, msg.ok ? std::string() : msg.error));
  }

  if (msg.ok) {
    replicas_.set_replica(msg.cache_name, worker, ReplicaState::present, msg.size);
    if (rec && !(rec->source.kind == TransferSource::Kind::worker &&
                 rec->source.key == worker)) {
      scheduler_.note_transfer_success(rec->source);
    }
  } else {
    replicas_.remove_replica(msg.cache_name, worker);
    ++stats_.transfer_failures;
    // Score the failure against the source (unless the "source" was the
    // destination itself, i.e. a mini-task materialization): plan_source
    // demotes and temporarily blacklists flaky sources, and falls back to
    // the fixed source when every peer is unhealthy.
    if (rec && !(rec->source.kind == TransferSource::Kind::worker &&
                 rec->source.key == worker)) {
      scheduler_.note_transfer_failure(rec->source, clock_.now());
    }
    VINE_LOG_WARN("manager", "transfer of %s to %s failed: %s",
                  msg.cache_name.c_str(), worker.c_str(), msg.error.c_str());
  }

  if (rec && msg.ok) {
    std::int64_t bytes = std::max<std::int64_t>(msg.size, 0);
    switch (rec->source.kind) {
      case TransferSource::Kind::manager:
        ++stats_.transfers_from_manager;
        stats_.bytes_from_manager += bytes;
        break;
      case TransferSource::Kind::url:
        ++stats_.transfers_from_url;
        stats_.bytes_from_url += bytes;
        break;
      case TransferSource::Kind::worker:
        if (rec->source.key == worker) {
          ++stats_.mini_tasks_run;  // materialized in place by a mini-task
        } else {
          ++stats_.transfers_from_peers;
          stats_.bytes_from_peers += bytes;
        }
        break;
    }
  }
}

void Manager::release_task_resources(TaskRuntime& task) {
  if (!task.resources_committed) return;
  auto it = workers_.find(task.worker);
  if (it != workers_.end()) {
    WorkerSnapshot& snap = snapshots_[it->second.slot];
    snap.committed -= task.spec.resources;
    snap.running_tasks -= 1;
    VINE_LOG_DEBUG("manager", "release task %llu on %s -> committed %s",
                   static_cast<unsigned long long>(task.spec.id),
                   task.worker.c_str(), snap.committed.to_string().c_str());
  }
  task.resources_committed = false;
}

void Manager::set_task_state(TaskRuntime& task, TaskState state) {
  task.state = state;
  if (state == TaskState::ready) {
    ready_tasks_.insert(task.spec.id);
  } else {
    ready_tasks_.erase(task.spec.id);
  }
  emit_task_state(task, task_state_name(state));
}

void Manager::finish_task(TaskRuntime& task, TaskReport report) {
  set_task_state(task, report.state);
  task.report = report;
  if (report.state == TaskState::done) ++stats_.tasks_done;
  else ++stats_.tasks_failed;
  // Re-runs triggered by lost-temp recovery already reported once; the
  // application must not see a second completion.
  if (!task.is_library && !task.report_delivered) {
    completed_.push_back(std::move(report));
  }
  task.report_delivered = true;
}

void Manager::handle_task_done(const WorkerId& worker, const proto::TaskDoneMsg& msg) {
  auto it = tasks_.find(msg.task_id);
  if (it == tasks_.end()) return;
  TaskRuntime& task = it->second;
  VINE_LOG_DEBUG("manager", "task %llu done on %s ok=%d rex=%d err=%s",
                 static_cast<unsigned long long>(msg.task_id), worker.c_str(),
                 msg.ok, msg.resource_exceeded, msg.error.c_str());
  release_task_resources(task);

  // Outputs were announced via cache_update already; make sure the table
  // has them even if messages raced.
  for (const auto& out : msg.outputs) {
    replicas_.set_replica(out.cache_name, worker, ReplicaState::present, out.size);
  }
  // Done or retrying, the outputs are no longer "expected" anywhere: they
  // either exist as replicas now or will be re-expected at re-placement.
  for (const auto& out : task.spec.outputs) {
    if (out.file) expected_outputs_.erase(out.file->cache_name);
  }

  if (msg.ok) {
    // A completed consumer closes its producers' recovery episodes: the
    // recovered temps were consumed, so a *later* loss of the same outputs
    // is a new recovery, not a continuation (see TaskRuntime::recovering).
    for (const auto& in : task.spec.inputs) {
      if (!in.file || in.file->kind != FileKind::temp ||
          in.file->producer_task == 0) {
        continue;
      }
      auto pit = tasks_.find(in.file->producer_task);
      if (pit != tasks_.end()) pit->second.recovering = false;
    }
    if (redundancy_.enabled() && !task.is_library) {
      const double runtime_s = std::max(0.0, msg.finished_at - msg.started_at);
      std::vector<std::string> temp_inputs;
      for (const auto& in : task.spec.inputs) {
        if (in.file && in.file->kind == FileKind::temp) {
          temp_inputs.push_back(in.file->cache_name);
        }
      }
      for (const auto& out : task.spec.outputs) {
        if (!out.file || out.file->kind != FileKind::temp) continue;
        redundancy_.note_produced(out.file->cache_name, runtime_s,
                                  replicas_.known_size(out.file->cache_name),
                                  temp_inputs);
      }
    }
    TaskReport report = task.report;
    report.state = TaskState::done;
    report.exit_code = msg.exit_code;
    report.output = msg.output;
    report.worker_id = worker;
    report.attempts = task.attempts + 1;
    report.started_at = msg.started_at;
    report.finished_at = msg.finished_at;
    finish_task(task, std::move(report));

    // Task-lifetime inputs are dead now; reclaim worker storage.
    if (config_.unlink_task_level_inputs) {
      for (const auto& in : task.spec.inputs) {
        if (in.file && in.file->cache == CacheLevel::task) {
          send_to_worker(worker, proto::UnlinkMsg{in.file->cache_name});
          replicas_.remove_replica(in.file->cache_name, worker);
        }
      }
    }
    task.worker.clear();
    return;
  }

  // Failure path: maybe grow the allocation, maybe retry, maybe give up.
  ++task.attempts;
  if (msg.resource_exceeded) {
    auto wit = workers_.find(worker);
    Resources cap = wit != workers_.end()
                        ? snapshots_[wit->second.slot].total
                        : task.spec.resources.grown(task.spec.resources);
    task.spec.resources = task.spec.resources.grown(cap);
  }
  if (task.attempts < task.spec.max_attempts) {
    task.worker.clear();
    set_task_state(task, TaskState::ready);
    return;
  }
  TaskReport report = task.report;
  report.state = TaskState::failed;
  report.exit_code = msg.exit_code;
  report.error_message = msg.error;
  report.worker_id = worker;
  report.attempts = task.attempts;
  // finish_task before clearing task.worker so the failed event still names
  // the worker the final attempt ran on.
  finish_task(task, std::move(report));
  task.worker.clear();
}

void Manager::handle_library_ready(const WorkerId& worker,
                                   const proto::LibraryReadyMsg& msg) {
  auto wit = workers_.find(worker);
  if (wit != workers_.end()) {
    snapshots_[wit->second.slot].libraries.insert(msg.library_name);
  }
  auto tit = tasks_.find(msg.task_id);
  if (tit != tasks_.end()) {
    // The LibraryTask runs for the rest of the workflow; mark it done for
    // bookkeeping but keep its resources committed on the worker.
    set_task_state(tit->second, TaskState::done);
  }
  VINE_LOG_INFO("manager", "library %s ready on %s", msg.library_name.c_str(),
                worker.c_str());
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

  ++stats_.workers_lost;
  VINE_LOG_WARN("manager", "worker %s disconnected", worker.c_str());
  // Captured before the purge: the redundancy repair hook below needs to
  // know which files just lost a holder.
  const std::vector<std::string> lost = replicas_.files_on(worker);
  if (config_.trace) {
    // Replicas that die with the worker, then the transfers they abort —
    // the closing membership event goes last so begin/end pairing in the
    // trace stays exact.
    for (const std::string& name : lost) {
      emit(obs::Event::make_cache_evict(clock_.now(), worker, name, "worker_lost"));
    }
  }
  replicas_.remove_worker(worker);
  for (const TransferRecord& rec : transfers_.remove_worker(worker)) {
    const bool replication = replication_live_.erase(rec.uuid) > 0;
    emit(obs::Event::make_transfer_end(
        clock_.now(), rec.cache_name,
        replication ? "replica"
                    : rec.prefetch ? "prefetch"
                                   : source_kind_name(rec.source.kind),
        source_key_of(rec.source), rec.dest, rec.dest, -1, rec.uuid,
        /*ok=*/false, "worker_lost"));
    prefetch_live_.erase(rec.uuid);
    if (replication) redundancy_.note_replica_done(rec.cache_name, rec.dest, false, 0);
  }
  // Lookahead bookkeeping that referenced the dead worker: unclaimed
  // prefetched replicas died with its cache, and outputs expected there
  // will be re-expected when their producers are re-placed.
  for (auto it = prefetched_.begin(); it != prefetched_.end();) {
    it = it->second == worker ? prefetched_.erase(it) : std::next(it);
  }
  for (auto it = expected_outputs_.begin(); it != expected_outputs_.end();) {
    it = it->second == worker ? expected_outputs_.erase(it) : std::next(it);
  }
  auto wit = workers_.find(worker);
  if (wit != workers_.end()) {
    // Swap-pop the dense snapshot and retarget the displaced worker's slot.
    const std::size_t slot = wit->second.slot;
    const std::size_t last = snapshots_.size() - 1;
    if (slot != last) {
      snapshots_[slot] = std::move(snapshots_[last]);
      workers_[snapshots_[slot].id].slot = slot;
    }
    snapshots_.pop_back();
    workers_.erase(wit);
  }

  // Requeue everything that was staged or running there.
  for (auto& [_, task] : tasks_) {
    if (task.worker != worker) continue;
    if (task.is_library) {
      // The instance died with its worker; drop the stale commitment. A
      // replacement is installed when the next worker says hello.
      task.resources_committed = false;
      task.worker.clear();
      continue;
    }
    if (task.state == TaskState::ready || task.state == TaskState::dispatched ||
        task.state == TaskState::running) {
      task.resources_committed = false;  // its worker is gone
      task.worker.clear();
      set_task_state(task, TaskState::ready);
    }
  }

  // Repair the replication invariant before touching the recovery path:
  // surviving replicas below k re-enter the engine's queue and transfers
  // go out now, so recover_lost_file below fires only for temps whose
  // *every* copy died with this worker.
  if (redundancy_.enabled()) {
    for (const std::string& name :
         redundancy_.note_worker_lost(worker, lost, replicas_)) {
      ++stats_.replica_repairs;
      emit(obs::Event::make_replica_repair(clock_.now(), worker, name));
    }
    issue_replications();
  }

  // Temp files whose only replica died: re-run their producers so waiting
  // consumers are not stranded.
  for (auto& [_, task] : tasks_) {
    if (task.state == TaskState::done || task.state == TaskState::failed ||
        task.is_library) {
      continue;
    }
    for (const auto& in : task.spec.inputs) {
      if (in.file && in.file->kind == FileKind::temp &&
          replicas_.present_count(in.file->cache_name) == 0) {
        recover_lost_file(in.file);
      }
    }
  }
  if (evicted) {
    emit(obs::Event::make_worker_evicted(clock_.now(), worker, "heartbeat"));
  } else {
    emit(obs::Event::make_worker_lost(clock_.now(), worker, "disconnect"));
  }
  maybe_audit("manager.worker_lost");
}

void Manager::audit(AuditReport& report) const {
  std::set<WorkerId> known;
  for (const auto& [id, _] : workers_) known.insert(id);
  replicas_.audit(report, known);
  transfers_.audit(report);

  static const std::string kSub = "manager";
  for (const auto& rec : transfers_.snapshot()) {
    report.check(known.count(rec.dest) > 0, kSub,
                 "transfer " + rec.uuid + " of " + rec.cache_name +
                     " targets unknown worker " + rec.dest);
    if (rec.source.kind == TransferSource::Kind::worker) {
      report.check(known.count(rec.source.key) > 0, kSub,
                   "transfer " + rec.uuid + " of " + rec.cache_name +
                       " draws from unknown worker " + rec.source.key);
    }
    report.check(replicas_.find(rec.cache_name, rec.dest).has_value(), kSub,
                 "transfer " + rec.uuid + " of " + rec.cache_name +
                     " has no replica record at destination " + rec.dest);
  }
  for (const auto& [id, task] : tasks_) {
    if (task.resources_committed) {
      report.check(known.count(task.worker) > 0, kSub,
                   "task " + std::to_string(id) +
                       " holds committed resources on unknown worker '" +
                       task.worker + "'");
    }
  }

  // The dense snapshot vector and the worker map must be a bijection.
  report.check(snapshots_.size() == workers_.size(), kSub,
               std::to_string(snapshots_.size()) + " snapshots for " +
                   std::to_string(workers_.size()) + " workers");
  for (const auto& [id, w] : workers_) {
    bool mapped = w.slot < snapshots_.size() && snapshots_[w.slot].id == id;
    report.check(mapped, kSub,
                 "worker " + id + " slot " + std::to_string(w.slot) +
                     " does not map back to its snapshot");
  }

  // The ready set must mirror exactly the tasks in TaskState::ready.
  for (TaskId id : ready_tasks_) {
    auto it = tasks_.find(id);
    report.check(it != tasks_.end() && it->second.state == TaskState::ready,
                 kSub, "ready-set entry " + std::to_string(id) +
                           " is not a ready task");
  }
  for (const auto& [id, task] : tasks_) {
    if (task.state == TaskState::ready) {
      report.check(ready_tasks_.count(id) > 0, kSub,
                   "ready task " + std::to_string(id) +
                       " missing from the ready set");
    }
  }
}

void Manager::maybe_audit(const char* where) const {
  if (!audits_enabled()) return;
  AuditReport report;
  audit(report);
  enforce_clean(report, where);
}

void Manager::recover_lost_file(const FileRef& file) {
  // Iterative walk up the producer ancestry: re-running a producer whose
  // own temp inputs are also gone must reset that whole chain. An explicit
  // stack keeps deep chains off the call stack, the visited set makes
  // (malformed) cyclic producer graphs terminate, and the step bound caps
  // the work a single loss event can trigger.
  constexpr std::size_t kMaxRecoveryChain = 100000;
  std::vector<FileRef> pending{file};
  std::set<TaskId> visited;
  std::size_t steps = 0;
  while (!pending.empty()) {
    FileRef f = std::move(pending.back());
    pending.pop_back();
    if (!f || f->kind != FileKind::temp || f->producer_task == 0) continue;
    if (replicas_.present_count(f->cache_name) > 0) continue;
    if (!visited.insert(f->producer_task).second) continue;
    if (++steps > kMaxRecoveryChain) {
      VINE_LOG_ERROR("manager",
                     "lost-temp recovery chain exceeded %zu producers; "
                     "abandoning the rest (workflow may stall)",
                     kMaxRecoveryChain);
      return;
    }
    auto it = tasks_.find(f->producer_task);
    if (it == tasks_.end()) continue;
    TaskRuntime& producer = it->second;
    if (producer.state != TaskState::done) continue;  // running or reset already

    VINE_LOG_WARN("manager",
                  "temp %s lost with its last replica; re-running task %llu",
                  f->cache_name.c_str(),
                  static_cast<unsigned long long>(producer.spec.id));
    // One logical recovery episode counts once: if the re-run's output died
    // again before any consumer used it, this is the same episode.
    if (!producer.recovering) ++stats_.recoveries;
    producer.recovering = true;
    if (redundancy_.enabled() && redundancy_.ever_satisfied(f->cache_name)) {
      // A temp that reached k copies should never need its producer again;
      // every such re-run is a replication invariant miss.
      ++stats_.recoveries_replicated;
    }
    set_task_state(producer, TaskState::ready);
    producer.worker.clear();
    // The producer's own temp inputs may also have died; walk upward.
    for (const auto& in : producer.spec.inputs) {
      if (in.file && in.file->kind == FileKind::temp &&
          replicas_.present_count(in.file->cache_name) == 0) {
        pending.push_back(in.file);
      }
    }
  }
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
  for (auto it = replication_goals_.begin(); it != replication_goals_.end();) {
    auto fit = files_.find(it->first);
    if (fit == files_.end()) {
      it = replication_goals_.erase(it);
      continue;
    }
    const FileRef file = fit->second;
    int want = it->second;
    int have = replicas_.present_count(file->cache_name);
    // Count pending materializations toward the goal to avoid re-issuing.
    int pending = 0;
    for (const auto& [worker_id, _] : workers_) {
      auto rep = replicas_.find(file->cache_name, worker_id);
      if (rep && rep->state == ReplicaState::pending) ++pending;
    }
    if (have >= want) {
      it = replication_goals_.erase(it);
      continue;
    }
    int missing = want - have - pending;
    for (const auto& [worker_id, _] : workers_) {
      if (missing <= 0) break;
      if (replicas_.find(file->cache_name, worker_id)) continue;
      // ensure_file_at issues at most one instruction per call.
      ensure_file_at(file, worker_id);
      --missing;
    }
    ++it;
  }
}

// ------------------------------------------------------------ scheduling

void Manager::send_to_worker(const WorkerId& worker, const proto::AnyMessage& msg) {
  auto it = workers_.find(worker);
  if (it == workers_.end()) return;
  auto st = it->second.endpoint->send_json(proto::encode(msg));
  if (!st.ok()) {
    VINE_LOG_WARN("manager", "send to %s failed: %s", worker.c_str(),
                  st.error().message.c_str());
  }
}

bool Manager::ensure_file_at(const FileRef& file, const WorkerId& worker) {
  const std::string& name = file->cache_name;
  if (replicas_.has_present(name, worker)) return true;
  auto pending = replicas_.find(name, worker);
  if (pending && pending->state == ReplicaState::pending) return false;

  // Materialization must be scheduled. Mini-task files first need their own
  // inputs at the worker.
  if (file->kind == FileKind::mini_task) {
    bool deps_ready = true;
    for (const auto& in : file->mini_task->inputs) {
      deps_ready &= ensure_file_at(in.file, worker);
    }
    if (!deps_ready) return false;
    // Mini-tasks occupy the destination worker itself; account the "source"
    // as that worker so its in-flight budget reflects the staging work.
    auto self = TransferSource::from_worker(worker);
    if (config_.sched.worker_source_limit > 0 &&
        transfers_.inflight_from(self) >= config_.sched.worker_source_limit) {
      return false;
    }
    std::string uuid = transfers_.begin(name, worker, self, clock_.now());
    replicas_.set_replica(name, worker, ReplicaState::pending);
    if (config_.trace) {
      obs::Event ev = obs::Event::make_transfer_begin(
          clock_.now(), name, "worker", worker, worker, worker,
          file->size_hint, uuid);
      ev.detail = "mini_task";
      emit(std::move(ev));
    }
    proto::MiniTaskMsg msg;
    msg.transfer_id = uuid;
    msg.cache_name = name;
    msg.level = file->cache;
    msg.task = proto::to_wire(*file->mini_task);
    send_to_worker(worker, msg);
    return false;
  }

  // Determine the fixed source for this file kind.
  TransferSource fixed;
  switch (file->kind) {
    case FileKind::local:
    case FileKind::buffer:
      fixed = TransferSource::from_manager();
      break;
    case FileKind::url:
      fixed = TransferSource::from_url(file->url);
      break;
    case FileKind::temp: {
      // Temps exist only in the cluster: a peer must hold one.
      auto plan = scheduler_.plan_source(name, TransferSource::from_manager(),
                                         worker, replicas_, transfers_,
                                         clock_.now());
      if (!plan || plan->kind != TransferSource::Kind::worker) {
        return false;  // producer not finished or peers saturated; retry
      }
      fixed = *plan;
      break;
    }
    default:
      return false;
  }

  std::optional<TransferSource> source =
      (file->kind == FileKind::temp)
          ? std::optional<TransferSource>(fixed)
          : scheduler_.plan_source(name, fixed, worker, replicas_, transfers_,
                                   clock_.now());
  if (!source) return false;  // all sources saturated; retry next pass

  std::string uuid = transfers_.begin(name, worker, *source, clock_.now());
  replicas_.set_replica(name, worker, ReplicaState::pending);
  emit(obs::Event::make_transfer_begin(
      clock_.now(), name, source_kind_name(source->kind), source_key_of(*source),
      worker, worker, file->size_hint, uuid));

  if (source->kind == TransferSource::Kind::manager) {
    // Push the bytes ourselves: header then blob.
    proto::PutMsg msg;
    msg.transfer_id = uuid;
    msg.cache_name = name;
    msg.level = file->cache;
    std::string payload;
    if (file->kind == FileKind::buffer) {
      payload = file->buffer;
    } else {
      std::error_code ec;
      if (fs::is_directory(file->local_path, ec)) {
        msg.is_dir = true;
        TempDir tmp("vine-mgr-pack");
        auto ar = tmp.path() / "dir.vpak";
        auto pack = vpak_pack_tree(file->local_path, ar);
        auto bytes = pack.ok() ? read_file(ar) : Result<std::string>(pack.error());
        if (!bytes.ok()) {
          VINE_LOG_ERROR("manager", "cannot pack %s: %s",
                         file->local_path.c_str(),
                         bytes.error().message.c_str());
          transfers_.finish(uuid);
          replicas_.remove_replica(name, worker);
          emit(obs::Event::make_transfer_end(clock_.now(), name, "manager", "",
                                             worker, worker, -1, uuid,
                                             /*ok=*/false, "read_failed"));
          return false;
        }
        payload = std::move(*bytes);
      } else {
        auto bytes = read_file(file->local_path);
        if (!bytes.ok()) {
          VINE_LOG_ERROR("manager", "cannot read %s", file->local_path.c_str());
          transfers_.finish(uuid);
          replicas_.remove_replica(name, worker);
          emit(obs::Event::make_transfer_end(clock_.now(), name, "manager", "",
                                             worker, worker, -1, uuid,
                                             /*ok=*/false, "read_failed"));
          return false;
        }
        payload = std::move(*bytes);
      }
    }
    auto it = workers_.find(worker);
    if (it != workers_.end()) {
      it->second.endpoint->send_json(proto::encode(proto::AnyMessage(msg)));
      it->second.endpoint->send_blob(name, std::move(payload));
    }
    return false;
  }

  // URL or peer fetch instruction.
  proto::FetchMsg msg;
  msg.transfer_id = uuid;
  msg.cache_name = name;
  msg.level = file->cache;
  msg.source = *source;
  if (source->kind == TransferSource::Kind::worker) {
    auto peer = workers_.find(source->key);
    if (peer != workers_.end()) {
      msg.source_addr = snapshots_[peer->second.slot].transfer_addr;
    }
  }
  send_to_worker(worker, msg);
  return false;
}

void Manager::dispatch_task(TaskRuntime& task) {
  VINE_LOG_DEBUG("manager", "dispatch task %llu to %s (%s)",
                 static_cast<unsigned long long>(task.spec.id),
                 task.worker.c_str(), task.spec.resources.to_string().c_str());
  proto::RunTaskMsg msg;
  msg.task = proto::to_wire(task.spec);
  send_to_worker(task.worker, msg);
  set_task_state(task, TaskState::dispatched);
  task.report.dispatched_at = clock_.now();
}

void Manager::schedule_pass() {
  ++stats_.sched_passes;
  const std::int64_t scanned_before = stats_.tasks_scanned;
  std::int64_t dispatched_this_pass = 0;
  const bool lookahead = config_.sched.lookahead.enabled;
  if (lookahead) build_dag_view();
  // One pass bracket: the scheduler's token->slot scratch survives across
  // every pick below, and the DagView (when lookahead is on) feeds the
  // consumer-gravity term.
  scheduler_.begin_pass(lookahead ? &dag_view_ : nullptr);
  // Ready-queue dispatch: the pass walks only ready tasks (ascending id,
  // like the old full-table scan) against snapshots_, which is maintained
  // incrementally at every commit/release — no per-pass rebuild or
  // patch-up. The iterator is advanced before processing because a
  // dispatched task leaves the set mid-walk; recover_lost_file may insert
  // ids, which std::set iteration tolerates.
  for (auto it = ready_tasks_.begin(); it != ready_tasks_.end();) {
    TaskRuntime& task = tasks_.at(*it);
    ++it;
    ++stats_.tasks_scanned;

    if (task.worker.empty()) {
      // Gate on producibility: a temp input that no worker holds yet means
      // the producing task has not finished — assigning a worker now would
      // pin resources (and could deadlock a full cluster) for nothing.
      bool producible = true;
      for (const auto& in : task.spec.inputs) {
        if (in.file && in.file->kind == FileKind::temp &&
            replicas_.present_count(in.file->cache_name) == 0) {
          producible = false;
          // If the producer already ran, its output has been lost (e.g.
          // the holding worker died before this consumer was submitted);
          // schedule the producer to run again.
          recover_lost_file(in.file);
          break;
        }
      }
      if (!producible) continue;

      auto pick = scheduler_.pick_worker(task.spec, snapshots_, replicas_);
      if (!pick) {
        VINE_LOG_DEBUG("manager", "no worker fits task %llu (%s); w0 avail=%s",
                       static_cast<unsigned long long>(task.spec.id),
                       task.spec.resources.to_string().c_str(),
                       snapshots_.empty()
                           ? "-"
                           : snapshots_[0].available().to_string().c_str());
        continue;
      }
      task.worker = *pick;
      auto wit = workers_.find(task.worker);
      if (wit != workers_.end()) {
        // Committing directly into snapshots_ is what keeps this pass (and
        // the next) scheduling against up-to-date availability.
        WorkerSnapshot& snap = snapshots_[wit->second.slot];
        snap.committed += task.spec.resources;
        snap.running_tasks += 1;
        task.resources_committed = true;
        VINE_LOG_DEBUG("manager", "commit task %llu on %s (%s) -> committed %s",
                       static_cast<unsigned long long>(task.spec.id),
                       task.worker.c_str(), task.spec.resources.to_string().c_str(),
                       snap.committed.to_string().c_str());
        for (const auto& in : task.spec.inputs) {
          if (in.file && replicas_.has_present(in.file->cache_name, task.worker)) {
            ++stats_.cache_hits;
          }
        }
        if (lookahead) {
          for (const auto& in : task.spec.inputs) {
            if (in.file &&
                prefetched_.erase({in.file->cache_name, task.worker})) {
              ++stats_.prefetch_hits;
            }
          }
          // Later picks in this pass (and the prefetch planner) see this
          // task's outputs as expected at its worker.
          const auto slot = static_cast<std::uint32_t>(wit->second.slot);
          for (const auto& out : task.spec.outputs) {
            if (!out.file) continue;
            expected_outputs_[out.file->cache_name] = task.worker;
            dag_view_.note_expected(out.file->cache_name, slot);
          }
        }
      }
    }

    bool all_present = true;
    for (const auto& in : task.spec.inputs) {
      all_present &= ensure_file_at(in.file, task.worker);
    }
    if (all_present) {
      dispatch_task(task);
      ++dispatched_this_pass;
    }
  }
  if (lookahead) {
    // Stale predictions die before new budget is spent.
    cancel_stale_prefetches();
    issue_prefetches();
  }
  scheduler_.end_pass();

  // Idle pumps would flood the trace with empty passes; record only the
  // passes that examined work.
  const std::int64_t scanned = stats_.tasks_scanned - scanned_before;
  if (config_.trace && scanned > 0) {
    emit(obs::Event::make_sched_pass(clock_.now(), scanned, dispatched_this_pass));
  }
}

void Manager::build_dag_view() {
  dag_view_.clear();
  // Expected locations of in-flight producer outputs, resolved to span
  // slots (lost producers' entries were pruned at worker loss).
  for (const auto& [name, worker] : expected_outputs_) {
    auto wit = workers_.find(worker);
    if (wit != workers_.end()) {
      dag_view_.note_expected(name, static_cast<std::uint32_t>(wit->second.slot));
    }
  }
  // The waiting frontier: unplaced ready tasks held back by the
  // producibility gate. Same walk order (ascending id) and same gate as
  // the placement loop, but read-only.
  for (const TaskId tid : ready_tasks_) {
    const TaskRuntime& task = tasks_.at(tid);
    if (!task.worker.empty()) continue;
    bool waiting = false;
    for (const auto& in : task.spec.inputs) {
      if (in.file && in.file->kind == FileKind::temp &&
          replicas_.present_count(in.file->cache_name) == 0) {
        waiting = true;
        break;
      }
    }
    if (!waiting) continue;
    const std::uint32_t idx = dag_view_.add_waiting(tid);
    for (const auto& in : task.spec.inputs) {
      if (!in.file) continue;
      const bool pending = in.file->kind == FileKind::temp &&
                           replicas_.present_count(in.file->cache_name) == 0;
      dag_view_.add_dep(idx, in.file->cache_name,
                        in.file->size_hint > 0 ? in.file->size_hint : 1,
                        pending);
    }
  }
}

void Manager::issue_prefetches() {
  auto plans = scheduler_.plan_prefetch(dag_view_, snapshots_, replicas_,
                                        transfers_, clock_.now());
  for (const auto& plan : plans) {
    auto lit = level_of_.find(plan.cache_name);
    std::string uuid = transfers_.begin(plan.cache_name, plan.dest, plan.source,
                                        clock_.now(), /*prefetch=*/true);
    replicas_.set_replica(plan.cache_name, plan.dest, ReplicaState::pending);
    prefetch_live_[uuid] =
        PrefetchTrack{plan.cache_name, plan.dest, plan.consumer, false};
    ++stats_.prefetch_issued;
    emit(obs::Event::make_transfer_begin(
        clock_.now(), plan.cache_name, "prefetch", source_key_of(plan.source),
        plan.dest, plan.dest, plan.bytes, uuid));
    proto::FetchMsg msg;
    msg.transfer_id = std::move(uuid);
    msg.cache_name = plan.cache_name;
    msg.level = lit != level_of_.end() ? lit->second : CacheLevel::workflow;
    msg.source = plan.source;
    msg.prefetch = true;
    auto peer = workers_.find(plan.source.key);
    if (peer != workers_.end()) {
      msg.source_addr = snapshots_[peer->second.slot].transfer_addr;
    }
    send_to_worker(plan.dest, msg);
  }
}

void Manager::issue_replications() {
  for (const auto& plan : redundancy_.plan(replicas_, transfers_, snapshots_)) {
    const TransferSource src = TransferSource::from_worker(plan.source);
    std::string uuid = transfers_.begin(plan.cache_name, plan.dest, src,
                                        clock_.now(), /*prefetch=*/true);
    replicas_.set_replica(plan.cache_name, plan.dest, ReplicaState::pending);
    replication_live_.insert(uuid);
    emit(obs::Event::make_transfer_begin(clock_.now(), plan.cache_name,
                                         "replica", plan.source, plan.dest,
                                         plan.dest, plan.bytes, uuid));
    proto::FetchMsg msg;
    msg.transfer_id = std::move(uuid);
    msg.cache_name = plan.cache_name;
    auto lit = level_of_.find(plan.cache_name);
    msg.level = lit != level_of_.end() ? lit->second : CacheLevel::workflow;
    msg.source = src;
    // Not a prefetch on the worker side: the copy is live state from the
    // first byte, and the pin exempts it from capacity eviction so the
    // last copy of a temp can never be squeezed out.
    msg.pin = true;
    auto peer = workers_.find(plan.source);
    if (peer != workers_.end()) {
      msg.source_addr = snapshots_[peer->second.slot].transfer_addr;
    }
    send_to_worker(plan.dest, msg);
  }
}

void Manager::cancel_stale_prefetches() {
  for (auto& [uuid, track] : prefetch_live_) {
    if (track.cancel_sent) continue;
    auto it = tasks_.find(track.consumer);
    const bool live = it != tasks_.end() &&
                      it->second.state != TaskState::done &&
                      it->second.state != TaskState::failed &&
                      (it->second.worker.empty() ||
                       it->second.worker == track.dest);
    if (live) continue;
    // Best-effort abort: the worker skips the fetch if it has not started.
    // Accounting waits for the reply — whichever cache_update arrives
    // ("cancelled" or a completed transfer that outran the cancel) closes
    // the record, so the transfer table never leaks an entry.
    send_to_worker(track.dest, proto::CancelTransferMsg{uuid});
    track.cancel_sent = true;
  }
}

}  // namespace vine
