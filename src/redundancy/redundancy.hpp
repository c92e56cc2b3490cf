// vine::redundancy — proactive k-replication of hot intermediate files.
//
// PR 4's answer to worker loss is transitive producer re-execution
// (recover_lost_file): correct, but it pays full recompute cost at exactly
// the moment the cluster is degraded. This engine replicates valuable temps
// *ahead* of failure instead, so losing a worker usually costs one background
// transfer rather than an ancestor-chain re-run. Its host is the control
// plane (vine::control) that the real Manager and the ClusterSim both drive:
// the engine decides *what* to copy *where*; the plane turns plans into
// transfer orders and the hosts own the mechanism (FetchMsg vs simulated
// flows).
//
// Cost model. Each produced temp is scored by expected loss cost against
// replication cost:
//
//     score = runtime_s * (1 + depth) / (max(bytes, 1) * pressure)
//
// where `runtime_s` is the observed producer runtime (a 2-hour producer's
// output is worth copying, a 2-second one's is not), `depth` is the
// ancestor-chain depth of the producer (losing a deep intermediate re-runs
// the whole chain transitively, so depth multiplies the recompute bill),
// `bytes` is the replica payload the wire must carry, and `pressure` is
// 1 + the number of transfers currently in flight (replication yields to a
// busy fabric and catches up when it drains). Files needing repair after a
// holder died outrank every fresh candidate regardless of score.
//
// Accounting. Replication transfers ride the CurrentTransferTable's
// *prefetch* class, so task-critical planning never queues behind them and
// the per-source limits of Figure 11c are untouched. The engine self-limits
// with its own in-flight caps and global / per-destination byte budgets.
//
// Repair state machine. A tracked file moves through:
//
//     produced -> queued -> (transfers in flight) -> satisfied(k)
//                    ^                                   |
//                    +----------- repair <-- holder lost +
//
// On worker loss the host tells the engine which files died there
// (note_worker_lost); survivors below k re-enter the queue flagged `repair`
// and are re-planned *before* the host touches the recovery path — so
// recover_lost_file fires only when every copy died. A file whose last copy
// is gone leaves the engine entirely (recovery owns it; a successful re-run
// re-enters it via note_produced).
//
// Everything here is deterministic (no RNG, no wall clock) and single-
// threaded: like vine::Scheduler the engine runs on the host's application /
// event thread and needs no mutex.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "catalog/replica_table.hpp"
#include "catalog/transfer_table.hpp"
#include "catalog/worker_info.hpp"

namespace vine::redundancy {

struct RedundancyConfig {
  /// Master switch. Off (the default) must leave host behavior — traces
  /// included — byte-identical to a build without the engine.
  bool enabled = false;

  /// Desired present copies (k) of every tracked temp. 1 disables copying
  /// without disabling tracking (useful for accounting-only runs).
  int replication_factor = 2;

  /// Ceiling on total replica bytes ever scheduled (0 = unlimited). Failed
  /// transfers refund their reservation.
  std::int64_t global_budget_bytes = 0;

  /// Ceiling on replica bytes scheduled *to* any one worker (0 = unlimited):
  /// replicas spread instead of piling onto the emptiest disk.
  std::int64_t per_worker_budget_bytes = 0;

  /// Replication transfers in flight, globally and per destination worker.
  int max_inflight = 8;
  int per_dest_inflight = 2;

  /// Plans issued per plan() call; bounds the burst a single pass can emit.
  int max_plans_per_pass = 16;
};

/// One background replica transfer the host should issue.
struct ReplicaPlan {
  std::string cache_name;
  WorkerId source;  ///< present holder to serve the bytes
  WorkerId dest;    ///< worker that will hold the new copy
  std::int64_t bytes = 0;
  bool repair = false;  ///< re-replication after a holder died
};

struct RedundancyStats {
  std::int64_t planned = 0;       ///< replica transfers scheduled
  std::int64_t completed = 0;     ///< replica transfers that landed
  std::int64_t failed = 0;        ///< replica transfers that died
  std::int64_t bytes_replicated = 0;
  std::int64_t repairs = 0;       ///< files re-queued after a holder died
  std::int64_t satisfied = 0;     ///< files that reached k present copies
};

class RedundancyEngine {
 public:
  explicit RedundancyEngine(RedundancyConfig config) : config_(config) {}

  bool enabled() const { return config_.enabled; }
  const RedundancyConfig& config() const { return config_; }
  const RedundancyStats& stats() const { return stats_; }

  /// A producer finished: start tracking (or re-tracking, after recovery)
  /// its temp output. `temp_inputs` are the producer's own temp input
  /// names — the engine derives the ancestor-chain depth from them, so the
  /// depth weighting stays inside the shared policy.
  void note_produced(const std::string& cache_name, double runtime_s,
                     std::int64_t bytes,
                     std::span<const std::string> temp_inputs);

  /// A replication transfer finished (host decoded the completion or the
  /// failure). Frees the in-flight slot; failures refund the byte budget
  /// and leave the file queued for a retry.
  void note_replica_done(const std::string& cache_name, const WorkerId& dest,
                         bool ok, std::int64_t bytes);

  /// A worker died holding `lost` files. Survivors below k re-enter the
  /// queue with repair priority; files with no copy left are dropped (the
  /// recovery path owns them now). Returns the cache names queued for
  /// repair so the host can emit replica_repair events. Call *after* the
  /// replica table dropped the worker and *before* the recovery sweep.
  std::vector<std::string> note_worker_lost(const WorkerId& worker,
                                            const std::vector<std::string>& lost,
                                            const FileReplicaTable& replicas);

  /// True iff the file ever reached k present copies (used to assert that
  /// fully replicated temps never need producer re-runs).
  bool ever_satisfied(const std::string& cache_name) const;

  /// Files still below their replication target — the factory's
  /// replication-backlog scale signal.
  int backlog() const { return static_cast<int>(queue_.size()); }

  /// Pick replica transfers for this pass: top loss-cost scorers first
  /// (repairs always first), within the in-flight caps and byte budgets.
  /// The returned plans are self-accounted as in flight; the host must
  /// close each with note_replica_done. Deterministic: no RNG, ties break
  /// on cache name / worker id.
  std::vector<ReplicaPlan> plan(const FileReplicaTable& replicas,
                                const CurrentTransferTable& transfers,
                                std::span<const WorkerSnapshot> workers);

 private:
  struct Tracked {
    double runtime_s = 0;
    int depth = 0;          ///< 1 + max depth over the producer's temp inputs
    std::int64_t bytes = 0;
    bool queued = false;    ///< sitting in queue_ (below k, not satisfied)
    bool repair = false;    ///< lost a holder; outranks fresh candidates
    bool satisfied = false; ///< reached k present copies at least once
  };

  double score(const Tracked& t, double pressure) const;

  RedundancyConfig config_;
  RedundancyStats stats_;
  std::map<std::string, Tracked> tracked_;
  std::set<std::string> queue_;  ///< candidates below k (sorted => determinism)
  std::map<std::string, std::set<WorkerId>> inflight_;  ///< per-file dests
  int inflight_total_ = 0;
  std::map<WorkerId, int> inflight_to_;
  std::map<WorkerId, std::int64_t> bytes_to_;  ///< per-dest budget spent
  std::int64_t bytes_total_ = 0;               ///< global budget spent
};

}  // namespace vine::redundancy
