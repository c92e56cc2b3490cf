#include "control/control_plane.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace vine::control {

const char* transfer_label(TransferClass cls, const TransferSource& source) {
  switch (cls) {
    case TransferClass::prefetch: return "prefetch";
    case TransferClass::replica: return "replica";
    case TransferClass::critical:
    case TransferClass::materialize:
      break;
  }
  switch (source.kind) {
    case TransferSource::Kind::manager: return "manager";
    case TransferSource::Kind::url: return "url";
    case TransferSource::Kind::worker: return "worker";
  }
  return "manager";
}

std::string source_key(const TransferSource& source) {
  return source.kind == TransferSource::Kind::manager ? std::string() : source.key;
}

namespace {

bool self_sourced(const TransferRecord& rec) {
  return rec.source.kind == TransferSource::Kind::worker && rec.source.key == rec.dest;
}

}  // namespace

ControlPlane::ControlPlane(ControlConfig config, Effects& effects, ControlStats& stats)
    : config_(std::move(config)),
      effects_(effects),
      stats_(stats),
      scheduler_(config_.sched, config_.seed),
      redundancy_(config_.redundancy) {}

// ------------------------------------------------------------ tasks

void ControlPlane::submit(TaskSpec spec, std::string category, bool is_library) {
  for (const auto* mounts : {&spec.inputs, &spec.outputs}) {
    for (const Mount& m : *mounts) {
      if (m.file && !m.file->cache_name.empty()) files_[m.file->cache_name] = m.file;
    }
  }
  const TaskId id = spec.id;
  TaskEntry& task = tasks_[id];
  if (id >= by_id_.size()) by_id_.resize(id + 1, nullptr);
  by_id_[id] = &task;
  task.spec = std::move(spec);
  task.category = std::move(category);
  task.is_library = is_library;
  set_task_state(task, TaskState::ready);
}

const TaskEntry* ControlPlane::task(TaskId id) const {
  return id < by_id_.size() ? by_id_[id] : nullptr;
}

TaskEntry* ControlPlane::task(TaskId id) {
  return id < by_id_.size() ? by_id_[id] : nullptr;
}

void ControlPlane::set_task_state(TaskEntry& task, TaskState state) {
  task.state = state;
  if (state == TaskState::ready) {
    ready_.insert(task.spec.id);
  } else {
    ready_.erase(task.spec.id);
  }
  effects_.emit(obs::Event::make_task_state(effects_.now(), task.spec.id,
                                            task_state_name(state), task.worker,
                                            task.category,
                                            state != TaskState::failed));
}

void ControlPlane::release(TaskEntry& task) {
  if (!task.resources_committed) return;
  task.resources_committed = false;
  auto sit = slot_of_.find(task.worker);
  if (sit == slot_of_.end()) return;
  WorkerSnapshot& snap = snapshots_[sit->second];
  snap.committed -= task.spec.resources;
  snap.running_tasks -= 1;
  total_avail_cores_ += task.spec.resources.cores;
}

void ControlPlane::task_running(TaskId id) {
  if (TaskEntry* t = task(id)) set_task_state(*t, TaskState::running);
}

void ControlPlane::task_finished(TaskId id, const WorkerId& worker, TaskState next,
                                 double runtime_s,
                                 std::span<const ProducedFile> produced) {
  TaskEntry* entry = this->task(id);
  if (!entry) return;
  TaskEntry& task = *entry;
  release(task);
  for (const ProducedFile& out : produced) {
    replicas_.set_replica(out.cache_name, worker, ReplicaState::present, out.size);
  }
  // Done or retrying, the outputs are no longer "expected" anywhere: they
  // exist as replicas now or will be re-expected at re-placement.
  for (const Mount& out : task.spec.outputs) {
    if (out.file) expected_outputs_.erase(out.file->cache_name);
  }
  if (next == TaskState::done) {
    // A completed consumer closes its producers' recovery episodes: a later
    // loss of the same outputs is a new recovery, not a continuation.
    std::vector<std::string> temp_inputs;
    for (const Mount& in : task.spec.inputs) {
      if (!in.file || in.file->kind != FileKind::temp) continue;
      temp_inputs.push_back(in.file->cache_name);
      if (TaskEntry* producer = this->task(in.file->producer_task)) {
        producer->recovering = false;
      }
    }
    if (redundancy_.enabled() && !task.is_library) {
      for (const Mount& out : task.spec.outputs) {
        if (!out.file || out.file->kind != FileKind::temp) continue;
        const std::string& name = out.file->cache_name;
        if (replicas_.present_count(name) == 0) continue;  // moved off-cluster
        redundancy_.note_produced(name, runtime_s, replicas_.known_size(name),
                                  temp_inputs);
      }
    }
  }
  // A retry re-enters the ready set unplaced; a terminal state keeps the
  // worker on its event, then lets go of it.
  if (next == TaskState::ready) task.worker.clear();
  set_task_state(task, next);
  task.worker.clear();
}

void ControlPlane::library_ready(TaskId id, const WorkerId& worker,
                                 const std::string& library) {
  auto sit = slot_of_.find(worker);
  if (sit != slot_of_.end()) snapshots_[sit->second].libraries.insert(library);
  // The install task holds its resources for the rest of the workflow.
  if (TaskEntry* t = task(id)) set_task_state(*t, TaskState::done);
}

// ------------------------------------------------------------ workers

void ControlPlane::join_worker(WorkerSnapshot snapshot) {
  auto [it, fresh] = slot_of_.try_emplace(snapshot.id, snapshots_.size());
  if (fresh) {
    snapshots_.emplace_back();
  } else {
    total_avail_cores_ -= snapshots_[it->second].available().cores;
  }
  WorkerSnapshot& snap = snapshots_[it->second];
  snap = std::move(snapshot);
  total_avail_cores_ += snap.available().cores;
}

const WorkerSnapshot* ControlPlane::worker(const WorkerId& id) const {
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &snapshots_[it->second];
}

void ControlPlane::forget_libraries() {
  for (WorkerSnapshot& snap : snapshots_) snap.libraries.clear();
}

std::vector<ClosedTransfer> ControlPlane::worker_lost(WorkerId id,
                                                      const std::string& evict_reason) {
  const double now = effects_.now();
  // Captured before the purge: the repair and recovery steps need to know
  // which files just lost a holder.
  const std::vector<std::string> lost = replicas_.files_on(id);
  for (const std::string& name : lost) {
    effects_.emit(obs::Event::make_cache_evict(now, id, name, evict_reason));
  }
  replicas_.remove_worker(id);

  std::vector<ClosedTransfer> dropped;
  for (TransferRecord& rec : transfers_.remove_worker(id)) {
    TransferClass cls = TransferClass::critical;
    if (replication_live_.erase(rec.uuid) > 0) {
      cls = TransferClass::replica;
      redundancy_.note_replica_done(rec.cache_name, rec.dest, /*ok=*/false, 0);
    } else if (rec.prefetch) {
      cls = TransferClass::prefetch;
      prefetch_live_.erase(rec.uuid);
    } else if (self_sourced(rec)) {
      cls = TransferClass::materialize;
    }
    dropped.push_back({std::move(rec), cls});
  }

  // Lookahead bookkeeping that referenced the worker: unclaimed prefetched
  // replicas died with its cache, and outputs expected there are
  // re-expected when their producers are re-placed.
  std::erase_if(prefetched_, [&](const auto& p) { return p.second == id; });
  std::erase_if(expected_outputs_, [&](const auto& e) { return e.second == id; });

  auto sit = slot_of_.find(id);
  if (sit != slot_of_.end()) {
    const std::size_t slot = sit->second;
    total_avail_cores_ -= snapshots_[slot].available().cores;
    const std::size_t last = snapshots_.size() - 1;
    if (slot != last) {
      snapshots_[slot] = std::move(snapshots_[last]);
      slot_of_[snapshots_[slot].id] = slot;
    }
    snapshots_.pop_back();
    slot_of_.erase(sit);
  }

  // Tasks placed there go back to the ready set; library installs die with
  // their instance (a rejoin deploys fresh ones).
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    TaskEntry& task = it->second;
    if (task.worker != id) {
      ++it;
      continue;
    }
    if (task.is_library) {
      ready_.erase(it->first);
      by_id_[it->first] = nullptr;
      it = tasks_.erase(it);
      continue;
    }
    if (task.state == TaskState::ready || task.state == TaskState::dispatched ||
        task.state == TaskState::running) {
      task.resources_committed = false;  // the snapshot went with the worker
      task.worker.clear();
      set_task_state(task, TaskState::ready);
    }
    ++it;
  }

  // Repair before recovery: survivors below k re-enter the engine's queue
  // and copies go out now, so producers re-run only for temps whose every
  // copy died.
  if (redundancy_.enabled()) {
    for (const std::string& name : redundancy_.note_worker_lost(id, lost, replicas_)) {
      ++stats_.replica_repairs;
      effects_.emit(obs::Event::make_replica_repair(now, id, name));
    }
    issue_replications();
  }
  recover_lost_inputs();
  return dropped;
}

// ------------------------------------------------------------ files

void ControlPlane::add_replica(const std::string& cache_name, const WorkerId& worker,
                               std::int64_t size) {
  replicas_.set_replica(cache_name, worker, ReplicaState::present, size);
}

void ControlPlane::drop_replica(const std::string& cache_name, const WorkerId& worker) {
  replicas_.remove_replica(cache_name, worker);
}

void ControlPlane::drop_file(const std::string& cache_name) {
  replicas_.remove_file(cache_name);
}

void ControlPlane::note_manager_copy(const std::string& cache_name, bool arrived) {
  manager_copy_[cache_name] = arrived;
}

bool ControlPlane::manager_holds(const std::string& cache_name) const {
  auto it = manager_copy_.find(cache_name);
  return it != manager_copy_.end() && it->second;
}

const FileRef* ControlPlane::file_named(const std::string& cache_name) const {
  auto it = files_.find(cache_name);
  return it == files_.end() ? nullptr : &it->second;
}

bool ControlPlane::missing(const FileRef& file) const {
  return file && file->kind == FileKind::temp &&
         replicas_.present_count(file->cache_name) == 0 &&
         !manager_holds(file->cache_name);
}

bool ControlPlane::start(TransferClass cls, const FileRef& file, const WorkerId& dest,
                         TransferSource source, std::int64_t bytes, TaskId consumer) {
  const bool background = cls == TransferClass::prefetch || cls == TransferClass::replica;
  TransferOrder order;
  order.cache_name = file->cache_name;
  order.dest = dest;
  order.source = std::move(source);
  order.cls = cls;
  order.file = file;
  order.bytes = bytes;
  order.uuid = transfers_.begin(order.cache_name, dest, order.source, effects_.now(),
                                background);
  replicas_.set_replica(order.cache_name, dest, ReplicaState::pending);
  if (cls == TransferClass::prefetch) {
    prefetch_live_[order.uuid] = PrefetchTrack{order.cache_name, dest, consumer};
    ++stats_.prefetch_issued;
  } else if (cls == TransferClass::replica) {
    replication_live_.insert(order.uuid);
  }
  if (effects_.start_transfer(order)) return true;
  transfers_.finish(order.uuid);
  replicas_.remove_replica(order.cache_name, dest);
  prefetch_live_.erase(order.uuid);
  if (replication_live_.erase(order.uuid) > 0) {
    redundancy_.note_replica_done(order.cache_name, dest, /*ok=*/false, 0);
  }
  return false;
}

bool ControlPlane::ensure_file_at(const FileRef& file, const WorkerId& worker) {
  const std::string& name = file->cache_name;
  if (replicas_.has_present(name, worker)) return true;
  auto rep = replicas_.find(name, worker);
  if (rep && rep->state == ReplicaState::pending) return false;
  const double now = effects_.now();

  if (file->kind == FileKind::mini_task) {
    // The mini-task's own inputs must land first; then it runs at the
    // destination, which counts as the source so its transfer budget
    // reflects the staging work.
    bool deps_ready = true;
    for (const Mount& in : file->mini_task->inputs) {
      deps_ready &= ensure_file_at(in.file, worker);
    }
    if (!deps_ready) return false;
    auto self = TransferSource::from_worker(worker);
    if (config_.sched.worker_source_limit > 0 &&
        transfers_.inflight_from(self) >= config_.sched.worker_source_limit) {
      return false;
    }
    start(TransferClass::materialize, file, worker, std::move(self), file->size_hint);
    return false;
  }

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
      if (manager_holds(name)) {
        fixed = TransferSource::from_manager();
        break;
      }
      // Temps exist only in the cluster: a peer must hold one.
      auto plan = scheduler_.plan_source(name, TransferSource::from_manager(), worker,
                                         replicas_, transfers_, now);
      if (!plan || plan->kind != TransferSource::Kind::worker) {
        return false;  // producer not finished or peers saturated; retry
      }
      start(TransferClass::critical, file, worker, std::move(*plan), file->size_hint);
      return false;
    }
    default:
      return false;
  }
  auto source = scheduler_.plan_source(name, fixed, worker, replicas_, transfers_, now);
  if (!source) return false;  // every source saturated; retry next pass
  start(TransferClass::critical, file, worker, std::move(*source), file->size_hint);
  return false;
}

// ------------------------------------------------------------ transfers

std::optional<ClosedTransfer> ControlPlane::transfer_done(
    const std::string& uuid, const std::string& cache_name, const WorkerId& dest,
    bool ok, std::int64_t size, bool cancelled) {
  std::optional<TransferRecord> rec;
  if (!uuid.empty()) rec = transfers_.finish(uuid);
  if (!rec) {
    if (ok) {
      replicas_.set_replica(cache_name, dest, ReplicaState::present, size);
    } else {
      replicas_.remove_replica(cache_name, dest);
      ++stats_.transfer_failures;
    }
    return std::nullopt;
  }
  const std::int64_t bytes = std::max<std::int64_t>(size, 0);
  ClosedTransfer closed{std::move(*rec), TransferClass::critical};
  const TransferRecord& r = closed.record;

  if (replication_live_.erase(uuid) > 0) {
    closed.cls = TransferClass::replica;
    if (ok) {
      // A landed replica is pinned: capacity eviction must never drop a
      // redundancy copy.
      replicas_.set_replica(cache_name, dest, ReplicaState::present, size);
      replicas_.pin(cache_name, dest);
      ++stats_.replications;
      stats_.replication_bytes += bytes;
      scheduler_.note_transfer_success(r.source);
    } else {
      // Background traffic never blacklists its source: that would poison
      // critical-path source health.
      replicas_.remove_replica(cache_name, dest);
      ++stats_.transfer_failures;
    }
    redundancy_.note_replica_done(cache_name, dest, ok, ok ? bytes : 0);
    return closed;
  }

  if (r.prefetch) {
    // A landed prefetch is an unclaimed replica until a placement hits it;
    // a cancelled one writes its moved bytes off as waste.
    closed.cls = TransferClass::prefetch;
    prefetch_live_.erase(uuid);
    if (ok) {
      replicas_.set_replica(cache_name, dest, ReplicaState::present, size);
      ++stats_.transfers_prefetch;
      stats_.bytes_prefetch += bytes;
      prefetched_.insert({cache_name, dest});
      scheduler_.note_transfer_success(r.source);
    } else {
      replicas_.remove_replica(cache_name, dest);
      if (cancelled) {
        ++stats_.prefetch_cancelled;
        stats_.prefetch_wasted_bytes += bytes;
      } else {
        ++stats_.transfer_failures;
      }
    }
    return closed;
  }

  // A mini-task "sourced" from its own destination says nothing about that
  // worker's health as a peer source.
  const bool self = self_sourced(r);
  if (self) closed.cls = TransferClass::materialize;
  if (!ok) {
    replicas_.remove_replica(cache_name, dest);
    ++stats_.transfer_failures;
    // plan_source demotes and temporarily blacklists flaky sources.
    if (!self) scheduler_.note_transfer_failure(r.source, effects_.now());
    return closed;
  }
  replicas_.set_replica(cache_name, dest, ReplicaState::present, size);
  if (self) return closed;
  scheduler_.note_transfer_success(r.source);
  if (r.source.kind == TransferSource::Kind::manager) {
    ++stats_.transfers_from_manager;
    stats_.bytes_from_manager += bytes;
  } else if (r.source.kind == TransferSource::Kind::worker) {
    ++stats_.transfers_from_peers;
    stats_.bytes_from_peers += bytes;
  }
  return closed;
}

// ------------------------------------------------------------ passes

void ControlPlane::schedule_pass() {
  ++stats_.sched_passes;
  std::int64_t scanned = 0;
  std::int64_t dispatched = 0;
  const bool lookahead = config_.sched.lookahead.enabled;
  if (lookahead) build_dag_view();
  // One pass bracket: the scheduler's token->slot scratch survives across
  // every pick below, and the DagView (lookahead) feeds consumer gravity.
  scheduler_.begin_pass(lookahead ? &dag_view_ : nullptr);
  // The pass walks only ready tasks, ascending id, against snapshots_ as
  // maintained at every commit/release. The iterator advances first: a
  // dispatched task leaves the set mid-walk, and recovery may insert ids.
  for (auto it = ready_.begin(); it != ready_.end();) {
    TaskEntry& task = *by_id_[*it];
    ++it;
    ++scanned;

    // Producibility gate: a lost or not-yet-produced temp input blocks the
    // task. Placing it anyway would pin resources (and could deadlock a
    // full cluster) for nothing. A blocked unplaced task whose input's
    // producer already ran lost that output; re-run the producer.
    bool blocked = false;
    for (const Mount& in : task.spec.inputs) {
      if (!missing(in.file)) continue;
      blocked = true;
      if (task.worker.empty() && lost(*in.file)) recover_lost_file(in.file);
      break;
    }
    if (blocked) continue;
    if (task.worker.empty() && !place(task)) continue;

    bool all_present = true;
    for (const Mount& in : task.spec.inputs) {
      all_present &= ensure_file_at(in.file, task.worker);
    }
    if (all_present) {
      set_task_state(task, TaskState::dispatched);
      effects_.dispatch(task);
      ++dispatched;
    }
  }
  if (lookahead) {
    // Stale predictions die before new budget is spent.
    cancel_stale_prefetches();
    issue_prefetches();
  }
  scheduler_.end_pass();
  stats_.tasks_scanned += scanned;
  effects_.emit(obs::Event::make_sched_pass(effects_.now(), scanned, dispatched));
  if (redundancy_.enabled()) issue_replications();
}

bool ControlPlane::place(TaskEntry& task) {
  // The cluster-wide free-core total bounds every worker's: when even the
  // sum cannot fit the task, no pick can.
  if (total_avail_cores_ < task.spec.resources.cores) return false;
  auto pick = scheduler_.pick_worker(task.spec, snapshots_, replicas_);
  if (!pick) return false;
  const std::size_t slot = slot_of_.at(*pick);
  task.worker = std::move(*pick);
  // Committing into the live snapshot keeps the rest of this pass (and the
  // next) scheduling against up-to-date availability.
  WorkerSnapshot& snap = snapshots_[slot];
  snap.committed += task.spec.resources;
  snap.running_tasks += 1;
  total_avail_cores_ -= task.spec.resources.cores;
  task.resources_committed = true;
  for (const Mount& in : task.spec.inputs) {
    if (in.file && replicas_.has_present(in.file->cache_name, task.worker)) {
      ++stats_.cache_hits;
    }
  }
  if (config_.sched.lookahead.enabled) {
    for (const Mount& in : task.spec.inputs) {
      if (in.file && prefetched_.erase({in.file->cache_name, task.worker})) {
        ++stats_.prefetch_hits;
      }
    }
    // Later picks in this pass (and the prefetch planner) see this task's
    // outputs as expected at its worker.
    for (const Mount& out : task.spec.outputs) {
      if (!out.file) continue;
      expected_outputs_[out.file->cache_name] = task.worker;
      dag_view_.note_expected(out.file->cache_name, static_cast<std::uint32_t>(slot));
    }
  }
  return true;
}

void ControlPlane::build_dag_view() {
  dag_view_.clear();
  // Expected locations of placed producers' outputs, resolved to slots.
  for (const auto& [name, worker] : expected_outputs_) {
    auto sit = slot_of_.find(worker);
    if (sit != slot_of_.end()) {
      dag_view_.note_expected(name, static_cast<std::uint32_t>(sit->second));
    }
  }
  // The waiting frontier: unplaced ready tasks held back by the gate, in
  // the placement loop's order (ascending id).
  for (const TaskId tid : ready_) {
    const TaskEntry& task = *by_id_[tid];
    if (!task.worker.empty()) continue;
    const bool waiting = std::any_of(task.spec.inputs.begin(), task.spec.inputs.end(),
                                     [&](const Mount& in) { return missing(in.file); });
    if (!waiting) continue;
    const std::uint32_t idx = dag_view_.add_waiting(tid);
    for (const Mount& in : task.spec.inputs) {
      if (!in.file) continue;
      dag_view_.add_dep(idx, in.file->cache_name,
                        in.file->size_hint > 0 ? in.file->size_hint : 1,
                        missing(in.file));
    }
  }
}

void ControlPlane::cancel_stale_prefetches() {
  // A prediction is stale once its consumer finished, failed, or was
  // placed on a different worker. Accounting waits for the host's close.
  std::vector<std::pair<std::string, WorkerId>> stale;
  for (auto& [uuid, track] : prefetch_live_) {
    if (track.cancel_sent) continue;
    const TaskEntry* consumer = task(track.consumer);
    const bool live = consumer && consumer->state != TaskState::done &&
                      consumer->state != TaskState::failed &&
                      (consumer->worker.empty() || consumer->worker == track.dest);
    if (live) continue;
    track.cancel_sent = true;
    stale.emplace_back(uuid, track.dest);
  }
  for (const auto& [uuid, dest] : stale) effects_.cancel_transfer(uuid, dest);
}

void ControlPlane::issue_prefetches() {
  for (PrefetchPlan& plan : scheduler_.plan_prefetch(dag_view_, snapshots_, replicas_,
                                                     transfers_, effects_.now())) {
    const FileRef* file = file_named(plan.cache_name);
    if (!file) continue;
    start(TransferClass::prefetch, *file, plan.dest, std::move(plan.source), plan.bytes,
          plan.consumer);
  }
}

void ControlPlane::issue_replications() {
  for (redundancy::ReplicaPlan& plan : redundancy_.plan(replicas_, transfers_, snapshots_)) {
    const FileRef* file = file_named(plan.cache_name);
    if (!file) {
      redundancy_.note_replica_done(plan.cache_name, plan.dest, /*ok=*/false, 0);
      continue;
    }
    start(TransferClass::replica, *file, plan.dest,
          TransferSource::from_worker(std::move(plan.source)), plan.bytes);
  }
}

// ------------------------------------------------------------ recovery

bool ControlPlane::lost(const FileDecl& file) const {
  const TaskEntry* producer = file.producer_task ? task(file.producer_task) : nullptr;
  return producer && producer->state == TaskState::done &&
         !manager_copy_.count(file.cache_name);
}

void ControlPlane::recover_lost_file(const FileRef& file) {
  // Explicit stack: deep chains stay off the call stack, the visited set
  // makes (malformed) cyclic producer graphs terminate, and the step bound
  // caps the work a single loss can trigger.
  std::vector<FileRef> pending{file};
  std::set<TaskId> visited;
  std::size_t steps = 0;
  while (!pending.empty()) {
    FileRef f = std::move(pending.back());
    pending.pop_back();
    if (!missing(f) || !lost(*f) || !visited.insert(f->producer_task).second) continue;
    if (++steps > max_recovery_chain_) {
      VINE_LOG_ERROR("control",
                     "lost-temp recovery chain exceeded %zu producers; "
                     "abandoning the rest (workflow may stall)",
                     max_recovery_chain_);
      return;
    }
    TaskEntry& producer = *task(f->producer_task);
    VINE_LOG_INFO("control", "temp %s lost with its last replica; re-running task %llu",
                  f->cache_name.c_str(),
                  static_cast<unsigned long long>(producer.spec.id));
    if (!producer.recovering) ++stats_.recoveries;
    producer.recovering = true;
    if (redundancy_.enabled() && redundancy_.ever_satisfied(f->cache_name)) {
      // A temp that reached k copies should never need its producer again.
      ++stats_.recoveries_replicated;
    }
    producer.worker.clear();
    producer.resources_committed = false;
    set_task_state(producer, TaskState::ready);
    for (const Mount& in : producer.spec.inputs) {
      if (missing(in.file)) pending.push_back(in.file);
    }
  }
}

void ControlPlane::recover_lost_inputs() {
  for (const auto& [_, task] : tasks_) {
    if (task.state == TaskState::done || task.state == TaskState::failed ||
        task.is_library) {
      continue;
    }
    for (const Mount& in : task.spec.inputs) {
      if (missing(in.file) && lost(*in.file)) recover_lost_file(in.file);
    }
  }
}

// ------------------------------------------------------------ audit

void ControlPlane::audit(AuditReport& report) const {
  std::set<WorkerId> known;
  for (const auto& [id, _] : slot_of_) known.insert(id);
  replicas_.audit(report, known);
  transfers_.audit(report);

  static const std::string kSub = "control";
  for (const TransferRecord& rec : transfers_.snapshot()) {
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

  // The dense snapshot vector and the id->slot map must be a bijection.
  report.check(snapshots_.size() == slot_of_.size(), kSub,
               std::to_string(snapshots_.size()) + " snapshots for " +
                   std::to_string(slot_of_.size()) + " workers");
  double avail = 0;
  for (const auto& [id, slot] : slot_of_) {
    const bool mapped = slot < snapshots_.size() && snapshots_[slot].id == id;
    report.check(mapped, kSub,
                 "worker " + id + " slot " + std::to_string(slot) +
                     " does not map back to its snapshot");
    if (mapped) avail += snapshots_[slot].available().cores;
  }
  report.check(std::abs(avail - total_avail_cores_) <= 1e-9 * std::max(1.0, std::abs(avail)),
               kSub,
               "available-core total " + std::to_string(total_avail_cores_) +
                   " != snapshot sum " + std::to_string(avail));

  // The ready set must mirror exactly the tasks in TaskState::ready.
  for (TaskId id : ready_) {
    const TaskEntry* t = task(id);
    report.check(t && t->state == TaskState::ready, kSub,
                 "ready-set entry " + std::to_string(id) + " is not a ready task");
  }
  for (const auto& [id, t] : tasks_) {
    if (t.state == TaskState::ready) {
      report.check(ready_.count(id) > 0, kSub,
                   "ready task " + std::to_string(id) + " missing from the ready set");
    }
  }
}

}  // namespace vine::control
