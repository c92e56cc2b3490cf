// The TaskVine worker (paper §2.2): manages one node's storage and compute.
// It executes tasks in sandboxes, keeps a flat cache of named objects,
// fetches remote data asynchronously through a bounded transfer queue,
// serves cached objects to peer workers, and hosts Library Instances for
// serverless calls. All policy lives at the manager; the worker provides
// mechanism and reports every state change (cache updates, completions).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/faults.hpp"
#include "common/mutex.hpp"
#include "common/work_pool.hpp"
#include "files/url_fetcher.hpp"
#include "net/frame.hpp"
#include "net/msg_queue.hpp"
#include "proto/messages.hpp"
#include "task/resources.hpp"
#include "worker/cache_store.hpp"
#include "worker/executor.hpp"
#include "worker/library_instance.hpp"

namespace vine {

struct WorkerConfig {
  /// Stable identity; also used to derive the peer-transfer channel name.
  std::string id;

  /// Manager control address ("chan:NAME" or "host:port").
  std::string manager_addr;

  /// Capacity advertised to the manager.
  Resources resources{.cores = 4, .memory_mb = 8000, .disk_mb = 50000, .gpus = 0};

  /// Storage root: cache/ and sandboxes/ live below it. A persistent root
  /// lets worker-lifetime objects survive across workflows (hot cache).
  std::filesystem::path root_dir;

  /// Bound on cache storage in bytes; 0 = unlimited. When exceeded, LRU
  /// worker-lifetime objects are evicted (reported to the manager).
  std::int64_t cache_capacity_bytes = 0;

  /// Parallel downloads this worker performs (its own transfer queue).
  int max_concurrent_transfers = 4;

  /// URL access for fetch instructions; defaults to file:// support.
  std::shared_ptr<UrlFetcher> fetcher;

  /// Serve peer transfers over real TCP instead of an in-process channel.
  bool tcp_transfer_service = false;

  /// Keepalive cadence on the control connection; an idle worker still
  /// sends proof of life this often so the manager's heartbeat deadline
  /// only fires on genuinely hung workers. 0 disables heartbeats.
  int heartbeat_interval_ms = 1000;

  /// Window for a peer fetch's reply frame, and for progress within any
  /// frame on the peer connection: a peer that goes silent surfaces
  /// Errc::timeout after this long instead of wedging a fetch thread.
  int transfer_io_timeout_ms = 60000;

  /// Peer/url fetch retries before reporting failure to the manager, with
  /// exponential backoff between attempts (manager-side re-planning around
  /// the failed source is the next line of defense).
  int fetch_retries = 1;
  int fetch_backoff_ms = 50;

  /// Fault-injection hooks for chaos tests (see common/faults.hpp).
  /// Null = no injection, zero cost.
  faults::WorkerFaultsHandle faults;

  /// Shared structured-trace sink (vine::obs); null disables tracing. The
  /// worker hands it to its CacheStore, which emits the node's cache churn
  /// as "worker:<id>" alongside the manager's control-plane events.
  std::shared_ptr<obs::TraceSink> trace;
};

class Worker {
 public:
  /// Create a worker, start its services, and register with the manager.
  static Result<std::unique_ptr<Worker>> connect(WorkerConfig config);

  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Process manager instructions until shutdown is received or stop() is
  /// called. Blocking; typically run on a dedicated thread.
  void run();

  /// Launch run() on an internal thread (joined by the destructor).
  void start();

  /// Request shutdown and join all internal threads.
  void stop();

  const std::string& id() const { return config_.id; }
  CacheStore& cache() { return *cache_; }
  const std::string& transfer_addr() const { return transfer_addr_; }

  /// Fault injection: freeze the control loop while keeping the connection
  /// open — the worker stops processing instructions and heartbeating, as a
  /// deadlocked or GC-wedged worker would. Only the manager's heartbeat
  /// deadline can get rid of it.
  void inject_hang() { hung_.store(true); }
  void clear_hang() { hung_.store(false); }

 private:
  explicit Worker(WorkerConfig config);
  Status init_and_register();

  // --- manager message handling (control thread) ---
  void handle_frame(Frame frame);
  /// Store the object a put carries in `frame` (a blob frame).
  void handle_put(const proto::PutMsg& msg, const Frame& frame);
  void handle_fetch(const proto::FetchMsg& msg);
  void handle_mini_task(const proto::MiniTaskMsg& msg);
  void handle_run_task(const proto::RunTaskMsg& msg);
  void handle_unlink(const proto::UnlinkMsg& msg);
  void handle_cancel_transfer(const proto::CancelTransferMsg& msg);
  void handle_send_file(const proto::SendFileMsg& msg);
  void handle_end_workflow();

  // --- helpers callable from any internal thread ---
  void send_to_manager(const proto::AnyMessage& msg);
  void send_cache_update(const std::string& cache_name,
                         const std::string& transfer_id, bool ok,
                         std::int64_t size, const std::string& error);
  /// Report cache evictions to the manager (replica-table truth).
  void report_evictions();

  /// Audit the cache store against on-disk truth and abort on violation
  /// when audits_enabled() (debug builds). Called at quiescent points:
  /// end-of-workflow and stop().
  void maybe_audit(const char* where) const;

  // --- transfer pool jobs ---
  void do_fetch(const proto::FetchMsg& msg);
  /// True (and consumes the mark) when `transfer_id` was cancelled by the
  /// manager before the fetch got to run.
  bool take_cancel(const std::string& transfer_id);
  /// One peer-fetch attempt: connect, GET, take the one reply frame within
  /// the io timeout, verify the attested digest, store. do_fetch wraps this
  /// in the retry/backoff loop.
  Status fetch_from_peer(const proto::FetchMsg& msg);
  void do_mini_task(const proto::MiniTaskMsg& msg);

  // --- task execution (exec pool jobs, except function calls) ---
  void run_task(const proto::WireTask& task);
  void start_library(const proto::WireTask& task);
  void invoke_function_call(const proto::WireTask& task);
  /// A library instance, its sandbox and its result pump.
  struct LibraryHost {
    std::unique_ptr<LibraryInstance> instance;
    std::filesystem::path sandbox;
    std::thread pump;
  };
  /// Stop a library instance, join its result pump and remove its sandbox.
  /// Blocks on running calls, so never called under libraries_mutex_.
  void retire_library(LibraryHost host);
  /// Retire every library instance (worker stop, end of workflow).
  void stop_libraries();

  // --- peer transfer service ---
  /// Listener acceptor: register a peer connection and route its frames
  /// to the serve pool. Runs on the transport's accept thread.
  void accept_peer(std::unique_ptr<Endpoint> ep);
  /// Serve-pool job: one frame (or the death notification) from the peer
  /// connection registered as `peer_id`.
  void serve_frame(std::uint64_t peer_id, Result<Frame> frame);
  /// Answer one GET on a peer connection: the injected peer faults, then
  /// send_object.
  void serve_get(Endpoint& peer, const proto::GetMsg& get);
  /// Send cached object `reply.cache_name` on `to` as one blob frame: the
  /// reply with its attested digest, then the bytes. Files go zero-copy;
  /// directories are archived through read_for_transfer. A miss or a
  /// failed read is answered with ok=false. Serves peers and send_file.
  void send_object(Endpoint& to, proto::ObjMsg reply);

  WorkerConfig config_;
  std::unique_ptr<CacheStore> cache_;
  std::unique_ptr<Executor> executor_;

  std::unique_ptr<Endpoint> manager_;
  /// Frames from the manager, pushed by manager_'s receiver and drained by
  /// the control thread; closed after the connection's terminal error.
  MsgQueue<Result<Frame>> control_;
  std::unique_ptr<Listener> transfer_listener_;
  std::string transfer_addr_;

  std::atomic<std::uint64_t> next_peer_id_{1};
  // Guards serve_peers_ (filled by accept_peer, emptied by the serve pool
  // and stop()). Endpoint destruction happens with the map swapped out or
  // the entry erased first, never under the lock (an Endpoint dtor
  // deregisters from the reactor, whose accept callback takes this lock).
  Mutex peers_mutex_{lock_rank::Rank::worker_peers};
  // peer connections, keyed by the id their receiver stamps on serve jobs
  std::map<std::uint64_t, std::shared_ptr<Endpoint>> serve_peers_
      VINE_GUARDED_BY(peers_mutex_);

  // Guards libraries_, the library instances by name (library starts race
  // function-call dispatch). Instance stop/join runs on hosts extracted
  // from the map first: joining a pump thread under the lock would be a
  // blocking call under a lock (vine_analyze rule) and would wedge
  // dispatch for its duration.
  Mutex libraries_mutex_{lock_rank::Rank::worker_libraries};
  std::map<std::string, LibraryHost> libraries_
      VINE_GUARDED_BY(libraries_mutex_);

  // Guards cancelled_transfers_: transfer ids cancelled by the manager
  // (stale prefetch predictions). Written by the control loop, consumed by
  // transfer-pool threads when their job reaches the front of the queue;
  // cleared at end_workflow so ids for transfers that completed before the
  // cancel arrived cannot pile up across workflows.
  Mutex cancels_mutex_{lock_rank::Rank::worker_cancels};
  std::set<std::string> cancelled_transfers_ VINE_GUARDED_BY(cancels_mutex_);

  std::thread run_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> hung_{false};  ///< inject_hang(): frozen control loop

  /// Worker-local monotonic clock; all reported timestamps share it.
  SteadyClock clock_;

  // Lazily grown pools (common/work_pool.hpp): an idle worker holds none of
  // their threads. Declared last so they are joined before anything their
  // jobs touch is destroyed.
  /// Peer GETs: answering one only hands bytes to the transport, so a
  /// handful of threads covers any number of peer connections.
  WorkPool serve_pool_{4};
  /// Fetches and mini tasks, capped at max_concurrent_transfers.
  WorkPool transfer_pool_;
  /// Command tasks and library starts. Uncapped: the manager's resource
  /// admission bounds how many run at once.
  WorkPool exec_pool_;
};

}  // namespace vine
