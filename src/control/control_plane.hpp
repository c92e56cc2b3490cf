// vine::control — the one control plane both halves run (paper §3.3).
//
// ControlPlane owns every placement and transfer decision of a TaskVine
// manager: the task table and its ready set, the dense worker snapshots the
// scheduler reads, the replica and transfer catalogs, the lookahead state
// (DagView, expected output locations, live and landed prefetches), the
// redundancy engine, and lost-temp recovery. The real Manager and the
// ClusterSim are thin hosts around it: each feeds it facts (a worker
// joined, a transfer landed, a task finished) and carries out what it
// decides through the Effects interface — wire messages for the runtime,
// flows on the simulated fabric for the simulator. Neither host keeps a
// copy of any decision, so a policy change lands here once and both halves
// run it; the simulator is trustworthy because it runs this code, not a
// mirror of it.
//
// Single-threaded: the plane runs on its host's application / event
// thread and takes no lock.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "catalog/replica_table.hpp"
#include "catalog/transfer_table.hpp"
#include "common/invariant.hpp"
#include "obs/event.hpp"
#include "redundancy/redundancy.hpp"
#include "sched/dag_view.hpp"
#include "sched/scheduler.hpp"
#include "task/task_spec.hpp"

namespace vine::control {

/// Why a transfer exists. `critical` stages an input of a placed task,
/// `materialize` runs a mini-task at its destination, and the two
/// background classes — lookahead `prefetch` and redundancy `replica` —
/// ride the transfer table's prefetch account so critical planning never
/// waits behind them.
enum class TransferClass : std::uint8_t { critical, materialize, prefetch, replica };

/// Trace label of a transfer: background classes by class, the rest by
/// source kind ("manager", "url", "worker").
const char* transfer_label(TransferClass cls, const TransferSource& source);

/// Trace source key: "" for the manager, else the url / worker id.
std::string source_key(const TransferSource& source);

/// One transfer the plane decided to start.
struct TransferOrder {
  std::string uuid;
  std::string cache_name;
  WorkerId dest;
  TransferSource source;
  TransferClass cls = TransferClass::critical;
  FileRef file;            ///< declaration of the file being moved
  std::int64_t bytes = 0;  ///< best known size, for the trace
};

/// A transfer record the plane closed, with the class it was issued as.
struct ClosedTransfer {
  TransferRecord record;
  TransferClass cls = TransferClass::critical;
};

/// A task in the plane's table.
struct TaskEntry {
  TaskSpec spec;
  std::string category;  ///< trace label of the task's task_state events
  TaskState state = TaskState::ready;
  WorkerId worker;       ///< placed / running worker; "" when unplaced
  bool resources_committed = false;
  bool is_library = false;
  /// A lost-temp recovery of this producer is still in flight: set when
  /// recovery resets the task, cleared when a consumer of one of its
  /// outputs completes. One logical episode counts once in
  /// ControlStats::recoveries however often the re-run output dies before
  /// anyone consumed it.
  bool recovering = false;
};

/// An output a finished task left at its worker.
struct ProducedFile {
  std::string cache_name;
  std::int64_t size = 0;
};

/// Counters the plane advances; ManagerStats and SimStats extend it.
struct ControlStats {
  std::int64_t transfers_from_manager = 0;
  std::int64_t transfers_from_peers = 0;
  std::int64_t bytes_from_manager = 0;
  std::int64_t bytes_from_peers = 0;
  std::int64_t cache_hits = 0;     ///< inputs already present at placement
  std::int64_t sched_passes = 0;   ///< schedule_pass invocations
  std::int64_t tasks_scanned = 0;  ///< ready tasks examined across all passes
  std::int64_t transfer_failures = 0;
  std::int64_t recoveries = 0;     ///< recovery episodes (producer re-runs)
  // ---- lookahead input prefetch (sched.prefetch_* counters) ----
  std::int64_t transfers_prefetch = 0;  ///< completed prefetch transfers
  std::int64_t bytes_prefetch = 0;      ///< bytes moved by completed prefetches
  std::int64_t prefetch_issued = 0;     ///< prefetch transfers started
  std::int64_t prefetch_hits = 0;       ///< placed task found a prefetched input
  std::int64_t prefetch_cancelled = 0;  ///< cancelled (stale prediction)
  std::int64_t prefetch_wasted_bytes = 0;  ///< bytes moved by cancelled prefetches
  // ---- redundancy (only advance when the engine is enabled) ----
  std::int64_t replications = 0;        ///< completed replication transfers
  std::int64_t replication_bytes = 0;   ///< bytes moved by completed replications
  std::int64_t replica_repairs = 0;     ///< survivors re-queued after a holder died
  /// Producer re-runs for temps that had reached k copies at some point —
  /// each one is a replication invariant miss (the soaks assert zero).
  std::int64_t recoveries_replicated = 0;
};

/// Everything the plane does to the outside world.
class Effects {
 public:
  virtual ~Effects() = default;
  /// Move order.cache_name to order.dest. The transfer record and the
  /// pending replica already exist; the host closes the transfer later
  /// with ControlPlane::transfer_done. Returns false when the transfer
  /// cannot start at all (the plane then rolls both back).
  virtual bool start_transfer(const TransferOrder& order) = 0;
  /// Best-effort cancel of a live prefetch whose prediction went stale.
  /// The host closes it with transfer_done(cancelled=true) once the
  /// cancel takes effect (or as a normal completion if it lost the race).
  virtual void cancel_transfer(const std::string& uuid, const WorkerId& dest) = 0;
  /// Run a placed task whose inputs are all present (already marked
  /// dispatched).
  virtual void dispatch(const TaskEntry& task) = 0;
  virtual void emit(obs::Event ev) = 0;
  /// The host's clock in seconds (steady time or virtual time).
  virtual double now() const = 0;
};

struct ControlConfig {
  SchedulerConfig sched{};
  redundancy::RedundancyConfig redundancy{};
  std::uint64_t seed = 1;
};

class ControlPlane {
 public:
  ControlPlane(ControlConfig config, Effects& effects, ControlStats& stats);
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // ------------------------------------------------------------ tasks

  /// Add a task (its id assigned by the host) to the table as ready.
  /// Every named input and output file becomes resolvable by cache name.
  void submit(TaskSpec spec, std::string category, bool is_library = false);
  const TaskEntry* task(TaskId id) const;
  TaskEntry* task(TaskId id);
  const std::map<TaskId, TaskEntry>& tasks() const { return tasks_; }
  /// Ids of TaskState::ready tasks — what a pass walks, ascending.
  const std::set<TaskId>& ready() const { return ready_; }

  /// A dispatched task started executing.
  void task_running(TaskId id);
  /// A task's execution on `worker` ended: releases its commitment, records
  /// the outputs it left there, and moves it to `next` (done, ready for a
  /// retry, or failed). A completed task closes its producers' recovery
  /// episodes and hands its temp outputs to the redundancy engine.
  void task_finished(TaskId id, const WorkerId& worker, TaskState next,
                     double runtime_s, std::span<const ProducedFile> produced);
  /// A library instance came up: the worker advertises it and the install
  /// task is done (its resources stay committed).
  void library_ready(TaskId id, const WorkerId& worker, const std::string& library);

  // ------------------------------------------------------------ workers

  /// Register a worker, or reset the snapshot of one already registered.
  void join_worker(WorkerSnapshot snapshot);
  /// A worker left (crash, disconnect, eviction, retirement). Its replicas
  /// are evicted with `evict_reason`, transfers to or from it are dropped,
  /// its tasks are re-queued (library installs are erased), survivors below
  /// their replication target are repaired, and then the done producers of
  /// temps that a non-done task still reads are re-run. Returns the
  /// dropped transfer records so the host can close them in its trace.
  /// `id` is taken by value: callers may hold it in a task's worker field,
  /// which the re-queue clears.
  std::vector<ClosedTransfer> worker_lost(WorkerId id, const std::string& evict_reason);
  const WorkerSnapshot* worker(const WorkerId& id) const;
  std::span<const WorkerSnapshot> workers() const { return snapshots_; }
  /// End of workflow: every library instance was stopped.
  void forget_libraries();

  // ------------------------------------------------------------ files

  void add_replica(const std::string& cache_name, const WorkerId& worker,
                   std::int64_t size);
  void drop_replica(const std::string& cache_name, const WorkerId& worker);
  void drop_file(const std::string& cache_name);
  /// The manager is receiving (arrived=false) or holds (arrived=true) a
  /// copy of a temp — the simulator's retrieval mode. Either way the temp
  /// is not lost and needs no recovery; once arrived it no longer gates
  /// its consumers, which fetch it from the manager.
  void note_manager_copy(const std::string& cache_name, bool arrived);
  /// Ensure `file` is (or is becoming) present at `worker`; true when
  /// already present. Starts at most one transfer per missing object.
  bool ensure_file_at(const FileRef& file, const WorkerId& worker);

  // ------------------------------------------------------------ transfers

  /// A transfer ended at `dest`. `uuid` may be empty (an announced task
  /// output or an eviction notice) or name a record that was already
  /// dropped with a worker; then only the replica table is updated.
  /// Returns the closed record and its class when one was open.
  std::optional<ClosedTransfer> transfer_done(const std::string& uuid,
                                              const std::string& cache_name,
                                              const WorkerId& dest, bool ok,
                                              std::int64_t size,
                                              bool cancelled = false);

  // ------------------------------------------------------------ passes

  /// One scheduling pass: gate → pick → commit → stage inputs → dispatch
  /// over the ready set, then (lookahead) stale-prefetch cancels and new
  /// prefetches, a `sched_pass` event, and (redundancy) replications.
  void schedule_pass();

  /// Catalog audits plus the plane's cross-invariants: the ready set
  /// mirrors the ready tasks, snapshots and the id->slot map are a
  /// bijection, committed resources sit only on known workers, the cached
  /// available-core total matches the snapshots, and every in-flight
  /// transfer touches known workers and is backed by a replica record.
  void audit(AuditReport& report) const;

  const FileReplicaTable& replicas() const { return replicas_; }
  const CurrentTransferTable& transfers() const { return transfers_; }
  const Scheduler& scheduler() const { return scheduler_; }
  const redundancy::RedundancyEngine& redundancy() const { return redundancy_; }
  const ControlConfig& config() const { return config_; }

 private:
  // Lets the unit tests inspect the lookahead bookkeeping and shrink the
  // recovery-walk bound.
  friend struct ControlTestPeer;

  struct PrefetchTrack {
    std::string cache_name;
    WorkerId dest;
    TaskId consumer = 0;
    bool cancel_sent = false;  ///< cancel_transfer issued; awaiting the close
  };

  void set_task_state(TaskEntry& task, TaskState state);
  void release(TaskEntry& task);
  bool manager_holds(const std::string& cache_name) const;
  /// A temp input that blocks its consumer: no present replica anywhere
  /// and no copy held by the manager.
  bool missing(const FileRef& file) const;
  /// Pick a worker for an unplaced task and commit it into the snapshot.
  bool place(TaskEntry& task);
  void build_dag_view();
  void cancel_stale_prefetches();
  void issue_prefetches();
  void issue_replications();
  /// Record the transfer and its pending replica, then hand the order to
  /// the host; false (rolled back) when the host could not start it.
  bool start(TransferClass cls, const FileRef& file, const WorkerId& dest,
             TransferSource source, std::int64_t bytes, TaskId consumer = 0);
  /// A missing temp whose producer already ran and that is not on its way
  /// to the manager: its output is gone, not merely not produced yet.
  bool lost(const FileDecl& file) const;
  /// Re-run the done producer of a lost temp and, transitively, of its
  /// own lost temp inputs. Iterative, cycle-safe, bounded by
  /// max_recovery_chain_ producers.
  void recover_lost_file(const FileRef& file);
  /// Demand-driven recovery sweep: every lost temp a non-done task reads.
  void recover_lost_inputs();
  const FileRef* file_named(const std::string& cache_name) const;

  ControlConfig config_;
  /// Producers one recovery walk may reset before it gives up: a guard
  /// against pathological ancestries, not a tuning knob.
  std::size_t max_recovery_chain_ = 100000;
  Effects& effects_;
  ControlStats& stats_;
  Scheduler scheduler_;
  redundancy::RedundancyEngine redundancy_;
  FileReplicaTable replicas_;
  CurrentTransferTable transfers_;

  std::map<TaskId, TaskEntry> tasks_;
  /// tasks_ entries by id (host ids are small and dense): task() is an
  /// array load on the gate's hot path. Null for ids not in the table.
  std::vector<TaskEntry*> by_id_;
  std::set<TaskId> ready_;
  /// Every file a submitted task mounts, by cache name (prefetch and
  /// replica plans name files; orders carry their declarations).
  std::map<std::string, FileRef> files_;
  /// Temps copied to the manager: cache_name -> the copy has arrived.
  std::map<std::string, bool> manager_copy_;

  /// Dense scheduler view, one snapshot per registered worker, maintained
  /// at every commit / release / join / leave so a pass never rebuilds it.
  /// Leaving swap-pops and retargets the displaced worker's slot.
  std::vector<WorkerSnapshot> snapshots_;
  std::map<WorkerId, std::size_t> slot_of_;
  /// Σ available().cores over snapshots_: a task needing more cores than
  /// the whole cluster has free skips the pick.
  double total_avail_cores_ = 0;

  // ---- lookahead state (all empty while lookahead is off) ----
  DagView dag_view_;  ///< per-pass waiting-frontier view
  /// Expected location of each not-yet-produced output: where its producer
  /// was placed. Set at commit, erased at completion and worker loss.
  std::map<std::string, WorkerId> expected_outputs_;
  std::map<std::string, PrefetchTrack> prefetch_live_;  // uuid -> track
  /// (cache_name, worker) pairs that arrived by prefetch and have not yet
  /// been claimed by a placement (claimed = prefetch hit).
  std::set<std::pair<std::string, WorkerId>> prefetched_;

  /// Uuids of in-flight replication transfers (their records share the
  /// prefetch account with lookahead staging).
  std::set<std::string> replication_live_;
};

}  // namespace vine::control
