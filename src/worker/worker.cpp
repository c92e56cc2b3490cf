#include "worker/worker.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "archive/vpak.hpp"
#include "common/log.hpp"
#include "common/uuid.hpp"
#include "fsutil/fsutil.hpp"
#include "hash/digest.hpp"
#include "net/channel.hpp"
#include "net/tcp.hpp"
#include "worker/builtins.hpp"

namespace vine {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

Worker::Worker(WorkerConfig config)
    : config_(std::move(config)),
      transfer_pool_(static_cast<std::size_t>(
          std::max(1, config_.max_concurrent_transfers))) {
  register_builtin_functions();
  if (!config_.fetcher) config_.fetcher = std::make_shared<FileUrlFetcher>();
  cache_ = std::make_unique<CacheStore>(config_.root_dir / "cache",
                                        config_.cache_capacity_bytes);
  if (config_.trace) {
    cache_->set_trace(config_.trace, &clock_, "worker:" + config_.id, config_.id);
  }
  executor_ = std::make_unique<Executor>(
      ExecutorConfig{config_.root_dir / "sandboxes", config_.id, 1 << 20, 0.05},
      *cache_);
}

Result<std::unique_ptr<Worker>> Worker::connect(WorkerConfig config) {
  auto w = std::unique_ptr<Worker>(new Worker(std::move(config)));
  VINE_TRY_STATUS(w->init_and_register());
  return w;
}

Status Worker::init_and_register() {
  // Peer transfer service.
  auto on_accept = [this](std::unique_ptr<Endpoint> ep) {
    accept_peer(std::move(ep));
  };
  if (config_.tcp_transfer_service) {
    VINE_TRY(transfer_listener_, tcp_listen(0, on_accept));
  } else {
    VINE_TRY(transfer_listener_,
             ChannelFabric::instance().listen(
                 "xfer-" + config_.id + "-" + generate_token(6), on_accept));
  }
  transfer_addr_ = transfer_listener_->address();

  // Control connection + registration. The receiver only enqueues; the
  // terminal error closes the queue behind it, so the control thread sees
  // the end of the connection whichever handler pops it.
  VINE_TRY(manager_, connect_to(config_.manager_addr, 5000ms));
  manager_->set_receiver([this](Result<Frame> frame) {
    const bool terminal = !frame.ok();
    control_.push(std::move(frame));
    if (terminal) control_.close();
  });
  proto::HelloMsg hello;
  hello.worker_id = config_.id;
  hello.transfer_addr = transfer_addr_;
  hello.resources = config_.resources;
  for (const auto& [name, entry] : cache_->list()) {
    hello.cached.push_back({name, entry.size});
  }
  send_to_manager(hello);
  VINE_LOG_INFO("worker", "%s registered with %s (%zu cached objects)",
                config_.id.c_str(), config_.manager_addr.c_str(),
                hello.cached.size());
  return Status::success();
}

Worker::~Worker() { stop(); }

void Worker::start() {
  run_thread_ = std::thread([this] { run(); });
}

void Worker::run() {
  const double beat_s = config_.heartbeat_interval_ms / 1000.0;
  double next_beat = clock_.now() + beat_s;
  while (!stopping_.load()) {
    if (hung_.load()) {
      // Injected hang: the connection stays open but nothing is processed
      // and no heartbeat goes out — indistinguishable from a wedged worker.
      std::this_thread::sleep_for(20ms);
      continue;
    }
    // Wait for the next frame; with heartbeats on, only until the next
    // beat is due — that deadline is the loop's only timer.
    std::optional<Result<Frame>> frame;
    if (config_.heartbeat_interval_ms > 0) {
      double now = clock_.now();
      if (now >= next_beat) {
        send_to_manager(proto::HeartbeatMsg{});
        next_beat = now + beat_s;
      }
      frame = control_.pop(std::chrono::milliseconds(
          static_cast<std::int64_t>(std::ceil((next_beat - now) * 1000.0))));
    } else {
      frame = control_.pop();
    }
    if (!frame) {
      if (control_.closed()) break;  // the terminal error was taken earlier
      continue;                      // a heartbeat is due
    }
    if (!frame->ok()) {
      VINE_LOG_INFO("worker", "%s: manager connection closed (%s)",
                    config_.id.c_str(), frame->error().message.c_str());
      break;
    }
    handle_frame(std::move(**frame));
  }
}

void Worker::stop() {
  // stopping_ may already be set by a shutdown message from the manager;
  // the close operations are idempotent and must run regardless, or the
  // control thread and the pool threads would never be woken to be joined.
  stopping_.store(true);
  if (manager_) manager_->close();
  control_.close();
  if (transfer_listener_) transfer_listener_->close();
  if (run_thread_.joinable() &&
      run_thread_.get_id() != std::this_thread::get_id()) {
    run_thread_.join();
  }
  // Queued fetches run down; their replies fail quietly on the closed
  // connection.
  transfer_pool_.close();
  serve_pool_.close();
  // Drop the peer connections with the map swapped out: a TCP endpoint dtor
  // synchronously deregisters from the reactor, whose accept callback takes
  // our lock. The listener is closed, so none can be added any more.
  std::map<std::uint64_t, std::shared_ptr<Endpoint>> peers_to_drop;
  {
    MutexLock lock(peers_mutex_);
    peers_to_drop.swap(serve_peers_);
  }
  peers_to_drop.clear();
  // Running tasks and library starts finish before the libraries are torn
  // down, so no start can install an instance behind the teardown.
  exec_pool_.close();

  stop_libraries();
  // All internal threads are quiescent; the cache must match the disk.
  maybe_audit("worker.stop");
}

void Worker::maybe_audit(const char* where) const {
  if (!audits_enabled()) return;
  AuditReport report;
  cache_->audit(report);
  enforce_clean(report, where);
}

// ------------------------------------------------------------ messaging

void Worker::send_to_manager(const proto::AnyMessage& msg) {
  auto st = manager_->send_json(proto::encode(msg));
  if (!st.ok() && !stopping_.load()) {
    VINE_LOG_WARN("worker", "%s: send to manager failed: %s", config_.id.c_str(),
                  st.error().message.c_str());
  }
}

void Worker::send_cache_update(const std::string& cache_name,
                               const std::string& transfer_id, bool ok,
                               std::int64_t size, const std::string& error) {
  proto::CacheUpdateMsg m;
  m.cache_name = cache_name;
  m.transfer_id = transfer_id;
  m.ok = ok;
  m.size = size;
  m.error = error;
  send_to_manager(m);
  // Storing one object may have evicted others; keep the manager's
  // replica table truthful about what this worker still holds.
  report_evictions();
}

void Worker::report_evictions() {
  for (const auto& name : cache_->take_evictions()) {
    proto::CacheUpdateMsg m;
    m.cache_name = name;
    m.ok = false;
    m.size = -1;
    m.error = "evicted";
    send_to_manager(m);
  }
}

// ------------------------------------------------------------ dispatch

void Worker::handle_frame(Frame frame) {
  auto msg = proto::decode(frame.msg);
  if (!msg.ok()) {
    VINE_LOG_WARN("worker", "%s: bad message: %s", config_.id.c_str(),
                  msg.error().message.c_str());
    return;
  }
  std::visit(
      [this, &frame](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::PutMsg>) handle_put(m, frame);
        else if constexpr (std::is_same_v<T, proto::FetchMsg>) handle_fetch(m);
        else if constexpr (std::is_same_v<T, proto::MiniTaskMsg>) handle_mini_task(m);
        else if constexpr (std::is_same_v<T, proto::RunTaskMsg>) handle_run_task(m);
        else if constexpr (std::is_same_v<T, proto::UnlinkMsg>) handle_unlink(m);
        else if constexpr (std::is_same_v<T, proto::CancelTransferMsg>) handle_cancel_transfer(m);
        else if constexpr (std::is_same_v<T, proto::SendFileMsg>) handle_send_file(m);
        else if constexpr (std::is_same_v<T, proto::EndWorkflowMsg>) handle_end_workflow();
        else if constexpr (std::is_same_v<T, proto::ShutdownMsg>) stopping_.store(true);
        else {
          VINE_LOG_WARN("worker", "%s: unexpected message on control channel",
                        config_.id.c_str());
        }
      },
      *msg);
}

void Worker::handle_put(const proto::PutMsg& msg, const Frame& frame) {
  if (frame.kind != Frame::Kind::blob) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      "put without the object's bytes");
    return;
  }
  Status st = msg.is_dir ? cache_->put_archive(msg.cache_name, frame.data, msg.level)
                         : cache_->put_bytes(msg.cache_name, frame.data, msg.level);
  if (!st.ok()) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      st.error().to_string());
    return;
  }
  auto e = cache_->entry(msg.cache_name);
  send_cache_update(msg.cache_name, msg.transfer_id, true,
                    e.ok() ? e->size : 0, "");
}

void Worker::handle_fetch(const proto::FetchMsg& msg) {
  transfer_pool_.submit([this, msg] { do_fetch(msg); });
}

void Worker::handle_mini_task(const proto::MiniTaskMsg& msg) {
  transfer_pool_.submit([this, msg] { do_mini_task(msg); });
}

bool Worker::take_cancel(const std::string& transfer_id) {
  MutexLock lock(cancels_mutex_);
  return cancelled_transfers_.erase(transfer_id) > 0;
}

void Worker::do_fetch(const proto::FetchMsg& msg) {
  // A cancel_transfer that raced ahead of this job in the queue: skip the
  // work and report "cancelled" so the manager can close its record. Only
  // prefetches are ever cancelled; task-critical fetches are never stale.
  if (take_cancel(msg.transfer_id)) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, 0, "cancelled");
    return;
  }
  if (cache_->contains(msg.cache_name)) {
    // A replication fetch of an object we already hold (e.g. a prefetch
    // landed first) still needs the eviction pin.
    if (msg.pin) cache_->pin(msg.cache_name);
    auto e = cache_->entry(msg.cache_name);
    send_cache_update(msg.cache_name, msg.transfer_id, true,
                      e.ok() ? e->size : 0, "");
    return;
  }

  Status stored = Error{Errc::internal, "unhandled source kind"};
  if (msg.source.kind == TransferSource::Kind::url) {
    auto body = config_.fetcher->fetch(msg.source.key);
    stored = body.ok() ? cache_->put_bytes(msg.cache_name, *body, msg.level)
                       : Status(body.error());
  } else if (msg.source.kind == TransferSource::Kind::worker) {
    // Peer transfer, with bounded retries: a transient peer failure (drop,
    // stall, corrupt frame) backs off and tries again before bothering the
    // manager; persistent failures surface as a failed cache update so the
    // manager can re-plan around the source.
    int attempt = 0;
    for (;;) {
      stored = fetch_from_peer(msg);
      if (stored.ok() || stopping_.load()) break;
      if (stored.error().code == Errc::not_found) break;  // peer lost it; re-plan
      if (attempt >= config_.fetch_retries) break;
      const auto backoff =
          std::chrono::milliseconds(std::max(1, config_.fetch_backoff_ms) << attempt);
      VINE_LOG_WARN("worker", "%s: peer fetch of %s failed (%s); retry in %lldms",
                    config_.id.c_str(), msg.cache_name.c_str(),
                    stored.error().message.c_str(),
                    static_cast<long long>(backoff.count()));
      std::this_thread::sleep_for(backoff);
      ++attempt;
    }
  }

  if (!stored.ok()) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      stored.error().to_string());
    return;
  }
  // Speculative bytes are tagged so eviction prefers them over live
  // workflow state; the first task that links the object promotes it.
  if (msg.prefetch) cache_->mark_prefetch(msg.cache_name);
  // Redundancy copies are pinned: this may become the last surviving
  // replica of a temp, so capacity pressure must never drop it.
  if (msg.pin) cache_->pin(msg.cache_name);
  auto e = cache_->entry(msg.cache_name);
  send_cache_update(msg.cache_name, msg.transfer_id, true,
                    e.ok() ? e->size : 0, "");
}

Status Worker::fetch_from_peer(const proto::FetchMsg& msg) {
  // Declared before the endpoint: the endpoint closes before the queue
  // goes, and no receiver callback runs after close() returns.
  MsgQueue<Result<Frame>> replies;
  auto peer = connect_to(msg.source_addr, 5000ms);
  if (!peer.ok()) return Status(peer.error());
  const auto io =
      std::chrono::milliseconds(std::max(1, config_.transfer_io_timeout_ms));
  (*peer)->set_io_timeout(io);
  (*peer)->set_receiver(
      [&replies](Result<Frame> frame) { replies.push(std::move(frame)); });
  (*peer)->send_json(proto::encode(proto::GetMsg{msg.cache_name}));
  auto reply = replies.pop(io);
  (*peer)->close();

  if (!reply) return Error{Errc::timeout, "no reply from peer " + msg.source_addr};
  if (!reply->ok()) {
    return reply->error().code == Errc::timeout
               ? Status(reply->error())
               : Status(Error{Errc::protocol_error, "bad peer response"});
  }
  const Frame& frame = **reply;
  auto decoded = proto::decode(frame.msg);
  if (!decoded.ok() || !std::holds_alternative<proto::ObjMsg>(*decoded)) {
    return Error{Errc::protocol_error, "peer sent non-obj response"};
  }
  const auto& obj = std::get<proto::ObjMsg>(*decoded);
  if (!obj.ok) return Error{Errc::not_found, "peer miss: " + obj.error};
  if (frame.kind != Frame::Kind::blob) {
    return Error{Errc::protocol_error, "peer blob missing"};
  }
  if (!obj.digest.empty() && md5_buffer(frame.data) != obj.digest) {
    // The sender attested the content; a mismatch means the bytes were
    // damaged in flight. Fail the transfer instead of caching poisoned
    // data.
    return Error{Errc::io_error, "peer blob digest mismatch"};
  }
  return obj.is_dir ? cache_->put_archive(msg.cache_name, frame.data, msg.level)
                    : cache_->put_bytes(msg.cache_name, frame.data, msg.level);
}

void Worker::do_mini_task(const proto::MiniTaskMsg& msg) {
  if (cache_->contains(msg.cache_name)) {
    auto e = cache_->entry(msg.cache_name);
    send_cache_update(msg.cache_name, msg.transfer_id, true,
                      e.ok() ? e->size : 0, "");
    return;
  }
  // Run the producing task; its first output is adopted under the target
  // cache name. The wire task's outputs carry the same name, so a plain
  // execute() already lands the object where it belongs.
  proto::WireTask task = msg.task;
  if (task.outputs.empty()) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      "mini task declares no output");
    return;
  }
  task.outputs[0].cache_name = msg.cache_name;
  task.outputs[0].level = msg.level;
  ExecOutcome outcome = executor_->execute(task);
  if (!outcome.ok) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1, outcome.error);
    return;
  }
  auto e = cache_->entry(msg.cache_name);
  send_cache_update(msg.cache_name, msg.transfer_id, true,
                    e.ok() ? e->size : 0, "");
}

// ------------------------------------------------------------ tasks

void Worker::handle_run_task(const proto::RunTaskMsg& msg) {
  if (msg.task.kind == TaskKind::function_call) {
    invoke_function_call(msg.task);
    return;
  }
  // A command waits on its child and a library start on its init, so both
  // leave the control thread.
  exec_pool_.submit([this, task = msg.task] {
    if (task.kind == TaskKind::library) {
      start_library(task);
    } else {
      run_task(task);
    }
  });
}

void Worker::run_task(const proto::WireTask& task) {
  proto::TaskDoneMsg done;
  done.task_id = task.id;
  done.started_at = clock_.now();

  ExecOutcome outcome = executor_->execute(task);

  done.finished_at = clock_.now();
  done.ok = outcome.ok;
  done.resource_exceeded = outcome.resource_exceeded;
  done.exit_code = outcome.exit_code;
  done.output = std::move(outcome.output);
  done.error = std::move(outcome.error);
  done.outputs = std::move(outcome.outputs);

  // Outputs became cache objects; announce them before the completion so
  // the manager's replica table is current when it processes task_done.
  for (const auto& out : done.outputs) {
    send_cache_update(out.cache_name, "", true, out.size, "");
  }
  send_to_manager(done);
}

// ------------------------------------------------------------ serverless

void Worker::start_library(const proto::WireTask& task) {
  auto sandbox = executor_->make_sandbox(task);
  if (!sandbox.ok()) {
    proto::TaskDoneMsg done;
    done.task_id = task.id;
    done.ok = false;
    done.error = "library sandbox: " + sandbox.error().to_string();
    send_to_manager(done);
    return;
  }
  FunctionContext ctx;
  ctx.sandbox_dir = sandbox->string();
  ctx.worker_id = config_.id;

  auto instance =
      std::make_unique<LibraryInstance>(task.library_name, task.id, ctx);

  // Wait for the init message.
  auto init = instance->from_instance().pop(60000ms);
  if (!init || !init->get_bool("ok")) {
    proto::TaskDoneMsg done;
    done.task_id = task.id;
    done.ok = false;
    done.error = init ? init->get_string("error", "library init failed")
                      : "library init timed out";
    send_to_manager(done);
    retire_library(LibraryHost{std::move(instance), *sandbox, {}});
    return;
  }

  proto::LibraryReadyMsg ready;
  ready.task_id = task.id;
  ready.library_name = task.library_name;
  if (const auto* fns = init->find("functions"); fns && fns->is_array()) {
    for (const auto& f : fns->as_array()) {
      if (f.is_string()) ready.functions.push_back(f.as_string());
    }
  }

  LibraryHost host;
  host.sandbox = *sandbox;
  auto* inst_raw = instance.get();
  host.instance = std::move(instance);
  // Pump results from the instance into task_done messages.
  host.pump = std::thread([this, inst_raw] {
    while (auto msg = inst_raw->from_instance().pop()) {
      if (msg->get_string("type") != "result") continue;
      proto::TaskDoneMsg done;
      done.task_id = static_cast<TaskId>(msg->get_int("call_id"));
      done.ok = msg->get_bool("ok");
      done.exit_code = done.ok ? 0 : 1;
      done.output = msg->get_string("output");
      done.error = msg->get_string("error");
      send_to_manager(done);
    }
  });

  // Swap in the new instance under the lock; retire a replaced older
  // instance outside it (stop/join are blocking calls).
  std::optional<LibraryHost> old_host;
  {
    MutexLock lib_lock(libraries_mutex_);
    auto it = libraries_.find(task.library_name);
    if (it != libraries_.end()) {
      old_host.emplace(std::move(it->second));
      libraries_.erase(it);
    }
    libraries_.emplace(task.library_name, std::move(host));
  }
  if (old_host) retire_library(std::move(*old_host));
  send_to_manager(ready);
}

void Worker::retire_library(LibraryHost host) {
  host.instance->stop();
  if (host.pump.joinable()) host.pump.join();
  remove_all_quiet(host.sandbox);
}

void Worker::stop_libraries() {
  // Extract the hosts under the lock; stop and join the instances outside
  // it. instance->stop() and pump.join() wait for running calls, and a
  // blocking call under libraries_mutex_ would stall function-call dispatch
  // (and is banned by the vine_analyze lock/blocking pass).
  std::map<std::string, LibraryHost> hosts;
  {
    MutexLock lock(libraries_mutex_);
    hosts.swap(libraries_);
  }
  for (auto& [_, host] : hosts) retire_library(std::move(host));
}

void Worker::invoke_function_call(const proto::WireTask& task) {
  {
    MutexLock lock(libraries_mutex_);
    auto it = libraries_.find(task.library_name);
    if (it != libraries_.end()) {
      it->second.instance->invoke(task.id, task.function_name,
                                  task.function_args);
      return;
    }
  }
  // Error reply outside the lock: send_to_manager can block on the wire,
  // and nothing below touches library state.
  proto::TaskDoneMsg done;
  done.task_id = task.id;
  done.ok = false;
  done.error = "no library instance for " + task.library_name;
  send_to_manager(done);
}

// ------------------------------------------------------------ misc ops

void Worker::handle_unlink(const proto::UnlinkMsg& msg) {
  (void)cache_->remove_object(msg.cache_name);
}

void Worker::handle_cancel_transfer(const proto::CancelTransferMsg& msg) {
  // Best-effort: if the fetch is still queued, the mark makes do_fetch
  // answer "cancelled" instead of transferring. If it already ran, the
  // completed cache_update is in flight and the mark dies with the next
  // end_workflow — the manager treats whichever reply arrives as final.
  MutexLock lock(cancels_mutex_);
  cancelled_transfers_.insert(msg.transfer_id);
}

void Worker::handle_send_file(const proto::SendFileMsg& msg) {
  proto::ObjMsg reply;
  reply.request_id = msg.request_id;
  reply.cache_name = msg.cache_name;
  send_object(*manager_, std::move(reply));
}

void Worker::send_object(Endpoint& to, proto::ObjMsg reply) {
  Status sent = [&]() -> Status {
    VINE_TRY(auto info, cache_->serve_info(reply.cache_name));
    reply.ok = true;
    if (!info.is_dir) {
      // Zero-copy: attest the memoized digest and let the transport stream
      // the file straight off disk.
      reply.digest = info.digest;
      return to.send_blob_file(proto::encode(reply), info.path.string(),
                               static_cast<std::uint64_t>(info.size));
    }
    // Directories are archived on the fly and must go through memory.
    VINE_TRY(auto data, cache_->read_for_transfer(reply.cache_name));
    reply.is_dir = data.second;
    reply.digest = md5_buffer(data.first);
    return to.send_blob(proto::encode(reply), std::move(data.first));
  }();
  // Sent, or the connection is gone and nobody is left to tell.
  if (sent.ok() || sent.error().code == Errc::unavailable) return;
  // A miss, or the object raced an eviction: answer with the error, so the
  // requester re-plans instead of waiting out its timeout.
  proto::ObjMsg miss;
  miss.request_id = std::move(reply.request_id);
  miss.cache_name = std::move(reply.cache_name);
  miss.error = sent.error().to_string();
  (void)to.send_json(proto::encode(miss));
}

void Worker::handle_end_workflow() {
  stop_libraries();
  {
    // Drop cancel marks whose fetches completed before the cancel arrived;
    // transfer ids are workflow-scoped so none can match later workflows.
    MutexLock lock(cancels_mutex_);
    cancelled_transfers_.clear();
  }
  cache_->end_workflow();
  maybe_audit("worker.end_workflow");
}

// ------------------------------------------------------------ peers

void Worker::accept_peer(std::unique_ptr<Endpoint> ep) {
  std::shared_ptr<Endpoint> peer(std::move(ep));
  const std::uint64_t id = next_peer_id_.fetch_add(1);
  // The receiver only enqueues (it runs on the reactor thread or the
  // requester's thread); it captures the id, never the endpoint, so there
  // is no ownership cycle through the connection. Register before
  // installing it — the first GET can land on the pool the instant the
  // callback is in place.
  {
    MutexLock lock(peers_mutex_);
    serve_peers_.emplace(id, peer);
  }
  peer->set_receiver([this, id](Result<Frame> frame) {
    serve_pool_.submit([this, id, frame = std::move(frame)]() mutable {
      serve_frame(id, std::move(frame));
    });
  });
}

void Worker::serve_frame(std::uint64_t peer_id, Result<Frame> frame) {
  std::shared_ptr<Endpoint> peer;
  {
    MutexLock lock(peers_mutex_);
    auto it = serve_peers_.find(peer_id);
    if (it == serve_peers_.end()) return;  // dropped by stop()
    peer = it->second;
    // Death notification — the connection closed, timed out, or broke.
    // It is always the receiver's last delivery for this id.
    if (!frame.ok()) serve_peers_.erase(it);
  }
  // The last reference may go here, outside the lock: the endpoint dtor
  // deregisters from the reactor.
  if (!frame.ok()) return;
  if (frame->kind != Frame::Kind::json) return;
  auto msg = proto::decode(frame->msg);
  if (!msg.ok() || !std::holds_alternative<proto::GetMsg>(*msg)) return;
  // If serve_get closes the connection, the transport delivers the death
  // notification and the branch above cleans up.
  serve_get(*peer, std::get<proto::GetMsg>(*msg));
}

void Worker::serve_get(Endpoint& peer, const proto::GetMsg& get) {
  faults::WorkerFaults* flt = config_.faults.get();
  if (flt && faults::WorkerFaults::take(flt->fail_peer_serves)) {
    // Injected peer failure: drop the connection without answering, as a
    // crashing server would. The requester sees a closed/timeout error.
    flt->injected.fetch_add(1);
    peer.close();
    return;
  }
  proto::ObjMsg obj;
  obj.cache_name = get.cache_name;
  // Stalls and corruptions are injected into serves of objects we hold; a
  // stalled serve never ships its bytes, so it consumes no corruption.
  if (flt && cache_->contains(get.cache_name)) {
    if (faults::WorkerFaults::take(flt->stall_peer_serves)) {
      // Injected stall: hold the connection and send nothing. The
      // requester's transfer_io_timeout must unwedge it.
      flt->injected.fetch_add(1);
      const double until = clock_.now() + flt->stall_ms.load() / 1000.0;
      while (!stopping_.load() && clock_.now() < until) {
        std::this_thread::sleep_for(10ms);
      }
      peer.close();
      return;
    }
    if (faults::WorkerFaults::take(flt->corrupt_peer_blobs)) {
      auto data = cache_->read_for_transfer(get.cache_name);
      if (data.ok()) {
        // Injected corruption: flip a byte after attesting the honest
        // digest, so the receiver's verification catches it.
        flt->injected.fetch_add(1);
        obj.ok = true;
        obj.is_dir = data->second;
        obj.digest = md5_buffer(data->first);
        std::string& bytes = data->first;
        if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x40;
        (void)peer.send_blob(proto::encode(obj), std::move(bytes));
        return;
      }
    }
  }
  send_object(peer, std::move(obj));
}

}  // namespace vine
