// The TaskVine manager (paper §2.2): accepts the workflow definition,
// names every file, schedules data placement and task execution, tracks
// replicas and transfers, collects results, and garbage-collects.
//
// The manager directs all policy; workers only provide mechanism. Progress
// happens when the application thread calls wait() (or the other pumping
// entry points) — the conventional TaskVine model where the manager runs
// inside the application process.
//
// Thread contract: the Manager API must be used from one thread (the
// application's). Transport callbacks only enqueue events.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "catalog/replica_table.hpp"
#include "catalog/transfer_table.hpp"
#include "common/clock.hpp"
#include "common/invariant.hpp"
#include "common/mutex.hpp"
#include "files/file_decl.hpp"
#include "files/url_fetcher.hpp"
#include "net/frame.hpp"
#include "net/msg_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "proto/messages.hpp"
#include "redundancy/redundancy.hpp"
#include "sched/scheduler.hpp"

namespace vine {

struct ManagerConfig {
  std::string name = "vine-manager";

  /// Listen address: "" auto-creates an in-process channel; "tcp" listens
  /// on a free TCP port; "chan:NAME" uses that channel name.
  std::string listen;

  SchedulerConfig sched{};

  /// Proactive k-replication of temp outputs (vine::redundancy). Off by
  /// default; when off, no replication path runs and traces stay
  /// byte-identical to a build without the engine.
  redundancy::RedundancyConfig redundancy{};

  /// URL access used for cache naming (HEAD requests); workers use their
  /// own fetcher for the actual downloads. Defaults to file:// support.
  std::shared_ptr<UrlFetcher> fetcher;

  std::uint64_t seed = 1;

  /// Delete task-lifetime inputs from a worker right after the consuming
  /// task completes (paper §2.3).
  bool unlink_task_level_inputs = true;

  /// Evict a worker that has sent nothing (not even a heartbeat) for this
  /// long: its connection is torn down and the usual worker-lost recovery
  /// (requeue, replica purge, lost-temp re-runs) kicks in. This is what
  /// turns a hung-but-connected worker from a forever-wedge into a
  /// recoverable loss. 0 disables eviction.
  int heartbeat_deadline_ms = 30000;

  /// Shared structured-trace sink (vine::obs). Null disables tracing —
  /// every emission site guards on the pointer, so the disabled path is a
  /// branch. A LocalCluster passes the same sink to the manager and all
  /// its workers so the whole deployment shares one event stream.
  std::shared_ptr<obs::TraceSink> trace;
};

/// Counters the benches and examples report (who moved which bytes).
struct ManagerStats {
  std::int64_t tasks_done = 0;
  std::int64_t tasks_failed = 0;
  std::int64_t transfers_from_manager = 0;
  std::int64_t transfers_from_url = 0;
  std::int64_t transfers_from_peers = 0;
  std::int64_t mini_tasks_run = 0;
  std::int64_t bytes_from_manager = 0;
  std::int64_t bytes_from_url = 0;
  std::int64_t bytes_from_peers = 0;
  std::int64_t cache_hits = 0;  ///< inputs found already present at staging
  std::int64_t sched_passes = 0;   ///< schedule_pass invocations
  std::int64_t tasks_scanned = 0;  ///< ready tasks examined across all passes
  std::int64_t transfer_failures = 0;  ///< failed transfers reported by workers
  std::int64_t recoveries = 0;         ///< producer re-runs for lost temps
  std::int64_t workers_lost = 0;       ///< disconnects + evictions
  std::int64_t workers_evicted = 0;    ///< of which: heartbeat-deadline evictions
  // ---- lookahead input prefetch (sched.prefetch_* counters) ----
  std::int64_t transfers_prefetch = 0;  ///< completed prefetch transfers
  std::int64_t bytes_prefetch = 0;      ///< bytes moved by completed prefetches
  std::int64_t prefetch_issued = 0;     ///< prefetch transfers started
  std::int64_t prefetch_hits = 0;       ///< placed task found a prefetched input
  std::int64_t prefetch_cancelled = 0;  ///< cancelled (stale prediction)
  std::int64_t prefetch_wasted_bytes = 0;  ///< bytes moved by cancelled prefetches
  // ---- redundancy (only advance when config.redundancy.enabled) ----
  std::int64_t replications = 0;        ///< completed replication transfers
  std::int64_t replication_bytes = 0;   ///< bytes moved by completed replications
  std::int64_t replica_repairs = 0;     ///< survivors re-queued after a holder died
  /// Producer re-runs for temps that had reached k copies at some point —
  /// each one is a replication invariant miss (the soak asserts zero).
  std::int64_t recoveries_replicated = 0;
};

class Manager {
 public:
  explicit Manager(ManagerConfig config = {});
  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Open the listener and start accepting workers.
  Status start();

  /// Address workers connect to.
  const std::string& address() const { return address_; }

  // ----------------------------------------------------- declarations

  /// Declare a file or directory on the manager-visible filesystem.
  /// Content is hashed now (Merkle tree for directories) to produce the
  /// cache name.
  Result<FileRef> declare_local(const std::string& path,
                                CacheLevel level = CacheLevel::workflow);

  /// Declare literal bytes held by the manager.
  FileRef declare_buffer(std::string content,
                         CacheLevel level = CacheLevel::workflow);

  /// Declare a remote object; naming uses the three-tier header scheme.
  Result<FileRef> declare_url(const std::string& url,
                              CacheLevel level = CacheLevel::workflow);

  /// Declare an ephemeral in-cluster file (output of a task). Its cache
  /// name is derived from the producing task at submit time.
  FileRef declare_temp();

  /// Declare a file produced on demand by running `mini` at the worker.
  /// `output_name` is the sandbox path the mini-task leaves behind. The
  /// cache name is the Merkle hash of the mini-task specification.
  Result<FileRef> declare_mini_task(TaskSpec mini, const std::string& output_name,
                                    CacheLevel level = CacheLevel::workflow);

  /// Built-in mini-task: unpack a vpak archive file into a directory
  /// object (the paper's declare_untar).
  Result<FileRef> declare_unpack(const FileRef& archive,
                                 CacheLevel level = CacheLevel::workflow);

  // ----------------------------------------------------- tasks

  /// Submit a task. Temp outputs are named here; ids are assigned here.
  Result<TaskId> submit(TaskSpec spec);

  /// Pump the manager until a task completes (or fails terminally); the
  /// completion order is arrival order. Errc::timeout when none completed
  /// within `timeout`.
  Result<TaskReport> wait(std::chrono::milliseconds timeout);

  /// True when no submitted task remains incomplete. Completed reports may
  /// still be queued for wait() — check has_completed() when draining.
  bool idle() const;

  /// True when completed task reports are waiting to be collected.
  bool has_completed() const { return !completed_.empty(); }

  /// Number of incomplete tasks.
  std::size_t outstanding() const;

  // ----------------------------------------------------- serverless

  /// Install a library on every current and future worker. Instances
  /// occupy `per_instance` resources and receive `inputs` in their
  /// sandbox. Returns after bookkeeping; deployment is asynchronous
  /// (FunctionCalls dispatch as instances come up, Figure 12c).
  Status install_library(const std::string& library_name, Resources per_instance,
                         std::vector<Mount> inputs = {});

  /// Convenience builder for a FunctionCall task.
  static TaskSpec function_call(const std::string& library,
                                const std::string& function, std::string args,
                                Resources resources = {});

  /// Workers currently advertising a live instance of `library_name`.
  int library_instances(const std::string& library_name) const;

  // ----------------------------------------------------- data access

  /// Retrieve a file's bytes to the manager: buffers/local files directly,
  /// cluster-resident objects via a send_file round trip to some worker.
  /// Directory objects come back as vpak archive bytes.
  Result<std::string> fetch_file(const FileRef& file,
                                 std::chrono::milliseconds timeout);

  /// Ask for `copies` replicas of an in-cluster file (reliability: a temp
  /// surviving any single worker loss needs >= 2). Transfers are scheduled
  /// asynchronously on subsequent pumps; returns immediately.
  Status replicate_file(const FileRef& file, int copies);

  // ----------------------------------------------------- cluster

  /// Pump until at least `count` workers registered.
  Status wait_for_workers(int count, std::chrono::milliseconds timeout);

  /// Make progress without waiting for a task completion (useful while
  /// waiting on background work such as replication).
  void poll(std::chrono::milliseconds timeout) { pump(timeout); }

  int worker_count() const { return static_cast<int>(workers_.size()); }
  std::vector<WorkerSnapshot> workers_snapshot() const;

  /// End-of-workflow GC: workers drop task/workflow-lifetime objects and
  /// stop library instances; replica bookkeeping follows.
  void end_workflow();

  /// Shut down all workers and stop the manager.
  void shutdown();

  const ManagerStats& stats() const { return stats_; }
  /// Temps still below their replication target — the elastic factory's
  /// replication-backlog scale signal (0 while redundancy is off).
  int replication_backlog() const { return redundancy_.backlog(); }
  const FileReplicaTable& replicas() const { return replicas_; }
  const CurrentTransferTable& transfers() const { return transfers_; }
  double now() const { return clock_.now(); }

  /// Validate the catalog state machines plus their cross-invariants:
  /// replicas only on registered workers, every in-flight transfer backed
  /// by a replica record at its destination, committed task resources only
  /// on registered workers. Debug builds run this at quiescent points
  /// (worker loss, end_workflow, shutdown) and abort on violation.
  void audit(AuditReport& report) const;

 private:
  struct Connection {
    std::string conn_id;
    std::shared_ptr<Endpoint> endpoint;
    WorkerId worker_id;  ///< "" until hello
  };

  struct WorkerState {
    std::size_t slot = 0;  ///< index into snapshots_ (swap-pop maintained)
    std::shared_ptr<Endpoint> endpoint;
    std::string conn_id;
    double last_heard = 0;  ///< clock_ time of the last frame (heartbeats too)
  };

  struct TaskRuntime {
    TaskSpec spec;
    TaskState state = TaskState::ready;
    int attempts = 0;
    WorkerId worker;  ///< staging/executing worker; "" when unassigned
    bool resources_committed = false;
    bool is_library = false;
    bool report_delivered = false;  ///< re-runs after recovery stay silent
    /// A lost-temp recovery of this producer is still in flight: set when
    /// recovery resets the task, cleared when a consumer of one of its
    /// outputs completes. Guards stats_.recoveries against counting one
    /// logical recovery episode twice when the re-run output dies again
    /// before anyone consumed it.
    bool recovering = false;
    TaskReport report;
  };

  struct Event {
    std::string conn_id;
    Frame frame;
    bool closed = false;
  };

  struct LibraryDef {
    std::string name;
    Resources per_instance;
    std::vector<Mount> inputs;
  };

  // --- event pumping (application thread) ---
  void pump(std::chrono::milliseconds timeout);
  void handle_event(Event ev);
  void handle_hello(const std::string& conn_id, const proto::HelloMsg& msg);
  void handle_cache_update(const WorkerId& worker, const proto::CacheUpdateMsg& msg);
  void handle_task_done(const WorkerId& worker, const proto::TaskDoneMsg& msg);
  void handle_library_ready(const WorkerId& worker, const proto::LibraryReadyMsg& msg);
  /// `evicted` marks heartbeat-deadline expulsions so the trace records
  /// worker_evicted rather than worker_lost for them.
  void handle_worker_lost(const std::string& conn_id, bool evicted = false);
  /// Tear down workers whose last frame is older than the heartbeat
  /// deadline; each goes through the full handle_worker_lost path.
  void evict_silent_workers();

  // --- scheduling (application thread) ---
  void schedule_pass();
  /// Rebuild dag_view_ from the waiting frontier of ready_tasks_ and seed
  /// expected output locations from in-flight producers (lookahead only).
  void build_dag_view();
  /// Issue the pass's planned background prefetches as tagged FetchMsgs.
  void issue_prefetches();
  /// Ask the redundancy engine for replica transfers and issue them as
  /// pinned FetchMsgs riding the prefetch transfer class.
  void issue_replications();
  /// Send best-effort cancel_transfer for live prefetches whose predicted
  /// consumer finished, failed, or landed on a different worker. The
  /// record stays open until the worker's cache_update reply closes it.
  void cancel_stale_prefetches();
  /// Ensure `file` is (or is becoming) present at `worker`; true when
  /// already present. Issues at most one new instruction per call.
  bool ensure_file_at(const FileRef& file, const WorkerId& worker);
  void dispatch_task(TaskRuntime& task);
  /// Every task-state transition goes through here so ready_tasks_ (the
  /// dispatch queue schedule_pass walks) stays in lockstep with the states.
  void set_task_state(TaskRuntime& task, TaskState state);
  void release_task_resources(TaskRuntime& task);
  void finish_task(TaskRuntime& task, TaskReport report);
  void send_to_worker(const WorkerId& worker, const proto::AnyMessage& msg);
  void install_library_on(const LibraryDef& def, const WorkerId& worker);
  void unlink_everywhere(const std::string& cache_name);

  /// A temp file lost with its last replica: reset its producing task (and
  /// transitively that task's own lost temp inputs) to run again. The walk
  /// is iterative, cycle-safe, and bounded by kMaxRecoveryChain ancestors.
  void recover_lost_file(const FileRef& file);
  void process_replication_requests();

  // --- helpers ---
  FileRef register_file(std::shared_ptr<FileDecl> decl);
  /// Listener acceptor: register `ep` and route its frames to the inbox.
  /// Runs on the transport's accept thread and never blocks.
  void add_connection(std::unique_ptr<Endpoint> ep);
  /// Run audit() and abort on violation when audits_enabled() (debug builds).
  void maybe_audit(const char* where) const;

  // --- structured tracing (vine::obs); all no-ops when config_.trace is null ---
  void emit(obs::Event ev);
  void emit_task_state(const TaskRuntime& task, const char* state);
  /// Snapshot metrics_ (ManagerStats gauges) into a `counters` event and
  /// flush the sink. Called at quiescent points (end_workflow, shutdown).
  void emit_counters();

  ManagerConfig config_;
  std::unique_ptr<Listener> listener_;
  std::string address_;
  SteadyClock clock_;
  Scheduler scheduler_;

  // Guards connections_ and next_conn_ (shared with the acceptor, which
  // runs on the transport's accept thread); all other workflow state below
  // is application-thread-only. Endpoints are closed and dropped only after
  // being extracted from the map: a TCP endpoint's teardown waits for the
  // reactor thread, which may itself be waiting here to add a connection.
  Mutex conn_mutex_{lock_rank::Rank::manager_connections};
  std::map<std::string, std::unique_ptr<Connection>> connections_
      VINE_GUARDED_BY(conn_mutex_);
  std::atomic<bool> stopping_{false};

  MsgQueue<Event> inbox_;

  // Workflow state (application thread only).
  std::map<WorkerId, WorkerState> workers_;
  // Dense scheduler view, one snapshot per registered worker, maintained
  // incrementally at every commit/release/join/loss so schedule_pass never
  // rebuilds it. workers_ maps each id to its slot here; worker loss
  // swap-pops and fixes the displaced worker's slot.
  std::vector<WorkerSnapshot> snapshots_;
  std::map<FileId, std::shared_ptr<FileDecl>> files_;
  std::map<std::string, CacheLevel> level_of_;  // cache_name -> lifetime
  std::map<TaskId, TaskRuntime> tasks_;
  // Ids of tasks in TaskState::ready — the only tasks a schedule pass must
  // visit. Ordered so the pass walks ascending ids like the old full scan.
  std::set<TaskId> ready_tasks_;
  std::deque<TaskReport> completed_;
  std::vector<LibraryDef> libraries_;
  FileReplicaTable replicas_;
  CurrentTransferTable transfers_;
  ManagerStats stats_;

  // ---- lookahead state (all empty / untouched when lookahead is off) ----
  DagView dag_view_;  ///< per-pass waiting-frontier view
  /// Expected location of each not-yet-done task output: where its producer
  /// was placed. Maintained at placement commit, consumed by build_dag_view,
  /// erased on task completion/retry and worker loss.
  std::map<std::string, WorkerId> expected_outputs_;
  struct PrefetchTrack {
    std::string cache_name;
    WorkerId dest;
    TaskId consumer = 0;
    bool cancel_sent = false;  ///< cancel_transfer already sent; await reply
  };
  std::map<std::string, PrefetchTrack> prefetch_live_;  // transfer uuid -> track
  /// (cache_name, worker) pairs whose replica arrived via prefetch and has
  /// not yet been claimed by a placement (claimed = prefetch hit).
  std::set<std::pair<std::string, WorkerId>> prefetched_;
  // Exposes every ManagerStats field as a gauge (registered in the
  // constructor); snapshotted into the trace by emit_counters().
  obs::MetricsRegistry metrics_;

  // Outstanding replication goals: cache_name -> desired replica count.
  std::map<FileId, int> replication_goals_;

  // ---- redundancy state (untouched when config.redundancy.enabled is off) ----
  redundancy::RedundancyEngine redundancy_;
  /// Transfer uuids of in-flight replication fetches; membership routes
  /// their cache_updates to the replication branch (their records share
  /// the prefetch transfer class with lookahead staging).
  std::set<std::string> replication_live_;

  // Blobs that arrived for fetch_file round trips, keyed by tag.
  std::map<std::string, std::string> blob_stash_;
  std::map<std::string, proto::FileDataMsg> file_replies_;  // by request_id

  FileId next_file_id_ = 1;
  TaskId next_task_id_ = 1;
  std::uint64_t next_conn_ VINE_GUARDED_BY(conn_mutex_) = 1;
};

}  // namespace vine
