// Unit tests for vine::control::ControlPlane, driven against a recording
// fake Effects: the producibility gate (including manager-held temps),
// placement commits, the stale-prefetch rule, worker leave, demand-driven
// lost-temp recovery, and end-of-pass replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/invariant.hpp"
#include "control/control_plane.hpp"

namespace vine::control {

struct ControlTestPeer {
  static const std::map<std::string, WorkerId>& expected_outputs(const ControlPlane& p) {
    return p.expected_outputs_;
  }
  static const std::set<std::pair<std::string, WorkerId>>& prefetched(
      const ControlPlane& p) {
    return p.prefetched_;
  }
  /// Shrink the recovery-walk bound so a test chain can exceed it.
  static void set_max_recovery_chain(ControlPlane& p, std::size_t steps) {
    p.max_recovery_chain_ = steps;
  }
};

namespace {

/// Records everything the plane asks of the outside world, in order.
struct FakeEffects : Effects {
  std::vector<TransferOrder> orders;
  std::vector<std::string> cancels;
  std::vector<TaskId> dispatched;
  std::vector<obs::Event> events;
  std::vector<std::string> log;  ///< "order:<class>:<file>", "event:<kind>"
  double t = 0;

  bool start_transfer(const TransferOrder& order) override {
    orders.push_back(order);
    log.push_back(std::string("order:") + transfer_label(order.cls, order.source) +
                  ":" + order.cache_name);
    return true;
  }
  void cancel_transfer(const std::string& uuid, const WorkerId&) override {
    cancels.push_back(uuid);
  }
  void dispatch(const TaskEntry& task) override { dispatched.push_back(task.spec.id); }
  void emit(obs::Event ev) override {
    log.push_back(std::string("event:") + obs::kind_name(ev.kind));
    events.push_back(std::move(ev));
  }
  double now() const override { return t; }

  std::vector<TransferOrder> orders_of(TransferClass cls) const {
    std::vector<TransferOrder> out;
    for (const auto& o : orders) {
      if (o.cls == cls) out.push_back(o);
    }
    return out;
  }
  bool was_dispatched(TaskId id) const {
    return std::find(dispatched.begin(), dispatched.end(), id) != dispatched.end();
  }
};

FileRef temp_file(const std::string& name, TaskId producer, std::int64_t size = 1000) {
  auto f = std::make_shared<FileDecl>();
  f->kind = FileKind::temp;
  f->cache_name = name;
  f->producer_task = producer;
  f->size_hint = size;
  return f;
}

FileRef buffer_file(const std::string& name, std::int64_t size) {
  auto f = std::make_shared<FileDecl>();
  f->kind = FileKind::buffer;
  f->cache_name = name;
  f->size_hint = size;
  return f;
}

TaskSpec make_task(TaskId id, std::vector<FileRef> inputs, std::vector<FileRef> outputs,
                   const std::string& pin = "") {
  TaskSpec spec;
  spec.id = id;
  spec.resources = {.cores = 1, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
  spec.pinned_worker = pin;
  for (auto& f : inputs) spec.inputs.push_back({f, f->cache_name});
  for (auto& f : outputs) spec.outputs.push_back({f, f->cache_name});
  return spec;
}

WorkerSnapshot make_worker(const std::string& id, double cores = 4) {
  WorkerSnapshot w;
  w.id = id;
  w.total = {.cores = cores, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
  return w;
}

struct Harness {
  FakeEffects fx;
  ControlStats stats;
  ControlPlane plane;

  explicit Harness(ControlConfig config = {}) : plane(std::move(config), fx, stats) {}

  /// Finish `id` on `worker`, leaving `outputs` there.
  void finish(TaskId id, const WorkerId& worker, std::vector<ProducedFile> outputs = {},
              TaskState next = TaskState::done) {
    plane.task_finished(id, worker, next, 1.0, outputs);
  }
  TaskState state(TaskId id) const { return plane.task(id)->state; }
  void expect_clean_audit() const {
    AuditReport report;
    plane.audit(report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
};

// ------------------------------------------------------------------ gate

TEST(ControlGate, UnproducedTempBlocksUntilItLands) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  auto t = temp_file("t", 1);
  h.plane.submit(make_task(1, {}, {t}), "produce");
  h.plane.submit(make_task(2, {t}, {}), "consume");

  h.plane.schedule_pass();
  EXPECT_TRUE(h.fx.was_dispatched(1));
  EXPECT_FALSE(h.fx.was_dispatched(2));
  EXPECT_TRUE(h.plane.task(2)->worker.empty()) << "a gated task must stay unplaced";
  EXPECT_EQ(h.stats.recoveries, 0) << "a running producer is not a lost one";

  h.finish(1, "w0", {{"t", 1000}});
  h.plane.schedule_pass();
  EXPECT_TRUE(h.fx.was_dispatched(2));
  EXPECT_EQ(h.stats.cache_hits, 1);
  h.expect_clean_audit();
}

TEST(ControlGate, ManagerHeldTempGatesUntilArrivalThenStagesFromManager) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  auto m = temp_file("m", 1);
  h.plane.submit(make_task(1, {}, {m}), "produce");
  h.plane.submit(make_task(2, {m}, {}), "consume");
  h.plane.schedule_pass();
  // The output went to the manager instead of staying at the worker.
  h.finish(1, "w0");
  h.plane.note_manager_copy("m", /*arrived=*/false);

  h.plane.schedule_pass();
  EXPECT_FALSE(h.fx.was_dispatched(2)) << "a copy in flight still gates";
  EXPECT_EQ(h.stats.recoveries, 0) << "a copy in flight is not lost";
  EXPECT_EQ(h.state(1), TaskState::done);

  h.plane.note_manager_copy("m", /*arrived=*/true);
  h.plane.schedule_pass();
  auto staged = h.fx.orders_of(TransferClass::critical);
  ASSERT_EQ(staged.size(), 1u);
  EXPECT_EQ(staged[0].cache_name, "m");
  EXPECT_EQ(staged[0].source.kind, TransferSource::Kind::manager);
  EXPECT_EQ(h.plane.task(2)->worker, "w0");
  h.expect_clean_audit();
}

// ------------------------------------------------------------------ commit

TEST(ControlCommit, PlacementCommitsIntoSnapshotAndCountsCacheHits) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  auto b = buffer_file("b", 5000);
  auto c = buffer_file("c", 10);
  h.plane.add_replica("b", "w1", 5000);
  h.plane.submit(make_task(1, {b, c}, {}), "t");

  h.plane.schedule_pass();
  const TaskEntry* task = h.plane.task(1);
  EXPECT_EQ(task->worker, "w1") << "most cached bytes wins";
  EXPECT_TRUE(task->resources_committed);
  EXPECT_EQ(h.plane.worker("w1")->committed.cores, 1);
  EXPECT_EQ(h.plane.worker("w1")->running_tasks, 1);
  EXPECT_EQ(h.stats.cache_hits, 1) << "b was present, c was not";
  EXPECT_EQ(h.fx.orders.size(), 1u) << "only c needs staging";
  EXPECT_FALSE(h.fx.was_dispatched(1));
  h.expect_clean_audit();

  // Staging lands; the task dispatches, then its finish releases the cores.
  auto closed = h.plane.transfer_done(h.fx.orders[0].uuid, "c", "w1", true, 10);
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->cls, TransferClass::critical);
  EXPECT_EQ(h.stats.transfers_from_manager, 1);
  h.plane.schedule_pass();
  EXPECT_TRUE(h.fx.was_dispatched(1));
  h.finish(1, "w1");
  EXPECT_EQ(h.plane.worker("w1")->committed.cores, 0);
  EXPECT_EQ(h.plane.worker("w1")->running_tasks, 0);
  h.expect_clean_audit();
}

// ------------------------------------------------------------------ prefetch

/// Lookahead scenario: "big" lands on wa, "small" on wb, and "slow" is
/// still being produced on wc. The consumer (task 4) waits on "slow" and is
/// predicted at wa, so "small" is prefetched wb -> wa.
struct PrefetchScenario {
  Harness h{[] {
    ControlConfig c;
    c.sched.lookahead.enabled = true;
    return c;
  }()};
  std::string uuid;

  explicit PrefetchScenario(const std::string& consumer_pin = "") {
    for (const char* w : {"wa", "wb", "wc", "wd"}) h.plane.join_worker(make_worker(w));
    auto big = temp_file("big", 1, 4'000'000'000);
    auto small = temp_file("small", 2, 100'000'000);
    auto slow = temp_file("slow", 3, 10'000'000);
    h.plane.submit(make_task(1, {}, {big}, "wa"), "p");
    h.plane.submit(make_task(2, {}, {small}, "wb"), "p");
    h.plane.submit(make_task(3, {}, {slow}, "wc"), "p");
    h.plane.submit(make_task(4, {big, small, slow}, {}, consumer_pin), "c");
    h.plane.schedule_pass();
    h.finish(1, "wa", {{"big", 4'000'000'000}});
    h.finish(2, "wb", {{"small", 100'000'000}});
    h.plane.schedule_pass();
    auto prefetches = h.fx.orders_of(TransferClass::prefetch);
    if (prefetches.size() == 1) uuid = prefetches[0].uuid;
  }
};

TEST(ControlPrefetch, ScenarioIssuesOnePrefetchTowardPrediction) {
  PrefetchScenario s;
  auto prefetches = s.h.fx.orders_of(TransferClass::prefetch);
  ASSERT_EQ(prefetches.size(), 1u);
  EXPECT_EQ(prefetches[0].cache_name, "small");
  EXPECT_EQ(prefetches[0].dest, "wa");
  EXPECT_EQ(prefetches[0].source, TransferSource::from_worker("wb"));
  EXPECT_EQ(s.h.stats.prefetch_issued, 1);
  // Still a live, good prediction: the next pass keeps it.
  s.h.plane.schedule_pass();
  EXPECT_TRUE(s.h.fx.cancels.empty());
  s.h.expect_clean_audit();
}

TEST(ControlPrefetch, ConsumerPlacedElsewhereCancelsOnceAndAccountsWaste) {
  PrefetchScenario s("wd");
  ASSERT_FALSE(s.uuid.empty());
  s.h.finish(3, "wc", {{"slow", 10'000'000}});
  s.h.plane.schedule_pass();
  EXPECT_EQ(s.h.plane.task(4)->worker, "wd");
  ASSERT_EQ(s.h.fx.cancels.size(), 1u);
  EXPECT_EQ(s.h.fx.cancels[0], s.uuid);
  s.h.plane.schedule_pass();
  EXPECT_EQ(s.h.fx.cancels.size(), 1u) << "a cancel is sent once";

  auto closed = s.h.plane.transfer_done(s.uuid, "small", "wa", false, 4000,
                                        /*cancelled=*/true);
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->cls, TransferClass::prefetch);
  EXPECT_EQ(s.h.stats.prefetch_cancelled, 1);
  EXPECT_EQ(s.h.stats.prefetch_wasted_bytes, 4000);
  EXPECT_EQ(s.h.stats.transfer_failures, 0) << "a cancel is not a failure";
  s.h.expect_clean_audit();
}

TEST(ControlPrefetch, ConsumerDoneMakesPrefetchStale) {
  PrefetchScenario s;
  ASSERT_FALSE(s.uuid.empty());
  s.h.finish(4, "", {}, TaskState::done);
  s.h.plane.schedule_pass();
  ASSERT_EQ(s.h.fx.cancels.size(), 1u);
  EXPECT_EQ(s.h.fx.cancels[0], s.uuid);
}

TEST(ControlPrefetch, ConsumerFailedMakesPrefetchStale) {
  PrefetchScenario s;
  ASSERT_FALSE(s.uuid.empty());
  s.h.finish(4, "", {}, TaskState::failed);
  s.h.plane.schedule_pass();
  ASSERT_EQ(s.h.fx.cancels.size(), 1u);
  EXPECT_EQ(s.h.fx.cancels[0], s.uuid);
}

TEST(ControlPrefetch, LandedPrefetchIsClaimedAsHitAtPlacement) {
  PrefetchScenario s;
  ASSERT_FALSE(s.uuid.empty());
  s.h.plane.transfer_done(s.uuid, "small", "wa", true, 100'000'000);
  EXPECT_EQ(s.h.stats.transfers_prefetch, 1);
  EXPECT_EQ(ControlTestPeer::prefetched(s.h.plane).count({"small", "wa"}), 1u);
  s.h.finish(3, "wc", {{"slow", 10'000'000}});
  s.h.plane.schedule_pass();
  EXPECT_EQ(s.h.plane.task(4)->worker, "wa");
  EXPECT_EQ(s.h.stats.prefetch_hits, 1);
  EXPECT_TRUE(ControlTestPeer::prefetched(s.h.plane).empty());
}

// ------------------------------------------------------------------ leave

TEST(ControlLeave, SwapPopKeepsSlotsBijective) {
  Harness h;
  for (const char* w : {"w0", "w1", "w2", "w3"}) h.plane.join_worker(make_worker(w));
  h.plane.worker_lost("w0", "worker_lost");
  ASSERT_EQ(h.plane.workers().size(), 3u);
  EXPECT_EQ(h.plane.workers()[0].id, "w3") << "the last snapshot fills the hole";
  EXPECT_EQ(h.plane.worker("w3"), &h.plane.workers()[0]);
  EXPECT_EQ(h.plane.worker("w0"), nullptr);
  h.plane.worker_lost("w2", "worker_lost");
  h.plane.join_worker(make_worker("w0", 8));
  for (const WorkerSnapshot& w : h.plane.workers()) {
    EXPECT_EQ(h.plane.worker(w.id), &w);
  }
  EXPECT_EQ(h.plane.worker("w0")->total.cores, 8);
  h.expect_clean_audit();
}

TEST(ControlLeave, LeavingPurgesLookaheadBookkeeping) {
  PrefetchScenario s;
  ASSERT_FALSE(s.uuid.empty());
  s.h.plane.transfer_done(s.uuid, "small", "wa", true, 100'000'000);
  ASSERT_EQ(ControlTestPeer::prefetched(s.h.plane).count({"small", "wa"}), 1u);
  ASSERT_EQ(ControlTestPeer::expected_outputs(s.h.plane).count("slow"), 1u);

  s.h.plane.worker_lost("wa", "worker_lost");
  EXPECT_TRUE(ControlTestPeer::prefetched(s.h.plane).empty());
  s.h.plane.worker_lost("wc", "worker_lost");
  EXPECT_TRUE(ControlTestPeer::expected_outputs(s.h.plane).empty());
  // The producer placed on wc went back to the ready set, unplaced.
  EXPECT_EQ(s.h.state(3), TaskState::ready);
  EXPECT_TRUE(s.h.plane.task(3)->worker.empty());
  s.h.expect_clean_audit();
}

TEST(ControlLeave, DroppedTransfersComeBackClassified) {
  PrefetchScenario s;
  ASSERT_FALSE(s.uuid.empty());
  auto dropped = s.h.plane.worker_lost("wb", "worker_lost");
  ASSERT_EQ(dropped.size(), 1u) << "the prefetch drew from wb";
  EXPECT_EQ(dropped[0].record.uuid, s.uuid);
  EXPECT_EQ(dropped[0].cls, TransferClass::prefetch);
  // Its close arriving afterwards only clears the pending replica.
  EXPECT_FALSE(s.h.plane.transfer_done(s.uuid, "small", "wa", false, 0).has_value());
  s.h.expect_clean_audit();
}

// ------------------------------------------------------------------ recovery

TEST(ControlRecovery, WorkerLossRerunsLostAncestorsTransitively) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  auto a = temp_file("a", 1);
  auto b = temp_file("b", 2);
  h.plane.submit(make_task(1, {}, {a}, "w0"), "t");
  h.plane.submit(make_task(2, {a}, {b}, "w0"), "t");
  h.plane.submit(make_task(3, {b}, {}, "w1"), "t");
  h.plane.schedule_pass();
  h.finish(1, "w0", {{"a", 1000}});
  h.plane.schedule_pass();
  h.finish(2, "w0", {{"b", 1000}});
  h.plane.schedule_pass();  // task 3 placed on w1, b on its way from w0
  ASSERT_EQ(h.plane.task(3)->worker, "w1");

  auto dropped = h.plane.worker_lost("w0", "worker_lost");
  EXPECT_EQ(dropped.size(), 1u);
  EXPECT_EQ(h.state(2), TaskState::ready);
  EXPECT_EQ(h.state(1), TaskState::ready);
  EXPECT_EQ(h.stats.recoveries, 2);
  h.expect_clean_audit();
}

TEST(ControlRecovery, LossWithoutAWaitingReaderRerunsNothing) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  auto a = temp_file("a", 1);
  h.plane.submit(make_task(1, {}, {a}, "w0"), "t");
  h.plane.submit(make_task(2, {a}, {}, "w0"), "t");
  h.plane.schedule_pass();
  h.finish(1, "w0", {{"a", 1000}});
  h.plane.schedule_pass();
  h.finish(2, "w0");
  h.plane.worker_lost("w0", "worker_lost");
  EXPECT_EQ(h.state(1), TaskState::done);
  EXPECT_EQ(h.stats.recoveries, 0);
}

TEST(ControlRecovery, EpisodeCountsOnceUntilAConsumerCompletes) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  auto a = temp_file("a", 1);
  h.plane.submit(make_task(1, {}, {a}, "w0"), "t");
  h.plane.submit(make_task(2, {a}, {}, "w1"), "t");
  h.plane.schedule_pass();
  h.finish(1, "w0", {{"a", 1000}});

  h.plane.worker_lost("w0", "worker_lost");
  EXPECT_EQ(h.stats.recoveries, 1);
  // The re-run's output dies again before anyone consumed it: same episode.
  h.plane.join_worker(make_worker("w0"));
  h.plane.schedule_pass();
  ASSERT_TRUE(h.fx.was_dispatched(1));
  h.finish(1, "w0", {{"a", 1000}});
  h.plane.worker_lost("w0", "worker_lost");
  EXPECT_EQ(h.stats.recoveries, 1);
  EXPECT_EQ(h.state(1), TaskState::ready);

  // This time the consumer completes; a later loss needs no re-run at all.
  h.plane.join_worker(make_worker("w0"));
  h.plane.schedule_pass();
  h.finish(1, "w0", {{"a", 1000}});
  h.plane.schedule_pass();
  ASSERT_EQ(h.fx.orders.back().cache_name, "a");
  h.plane.transfer_done(h.fx.orders.back().uuid, "a", "w1", true, 1000);
  h.plane.schedule_pass();
  ASSERT_TRUE(h.fx.was_dispatched(2));
  h.finish(2, "w1");
  EXPECT_FALSE(h.plane.task(1)->recovering);
  h.plane.worker_lost("w0", "worker_lost");
  EXPECT_EQ(h.stats.recoveries, 1);
  h.expect_clean_audit();
}

TEST(ControlRecovery, CyclicProducerGraphTerminates) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  // Malformed: x and y each produce the other's input. Both report done.
  auto x = temp_file("x", 1);
  auto y = temp_file("y", 2);
  h.plane.submit(make_task(1, {y}, {x}), "t");
  h.plane.submit(make_task(2, {x}, {y}), "t");
  h.plane.submit(make_task(3, {x}, {}, "w1"), "t");
  h.finish(1, "w0", {{"x", 10}});
  h.finish(2, "w0", {{"y", 10}});

  h.plane.worker_lost("w0", "worker_lost");
  EXPECT_EQ(h.state(1), TaskState::ready);
  EXPECT_EQ(h.state(2), TaskState::ready);
  EXPECT_EQ(h.stats.recoveries, 2);
}

TEST(ControlRecovery, WalkIsBoundedByMaxRecoveryChain) {
  Harness h;
  ControlTestPeer::set_max_recovery_chain(h.plane, 3);
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  // A six-deep chain t1 -> ... -> t6, all done on w0, read by task 7.
  std::vector<FileRef> files;
  for (TaskId id = 1; id <= 6; ++id) {
    files.push_back(temp_file("f" + std::to_string(id), id));
    std::vector<FileRef> in;
    if (id > 1) in.push_back(files[id - 2]);
    h.plane.submit(make_task(id, in, {files.back()}), "t");
    h.finish(id, "w0", {{files.back()->cache_name, 10}});
  }
  h.plane.submit(make_task(7, {files.back()}, {}, "w1"), "t");

  h.plane.worker_lost("w0", "worker_lost");
  EXPECT_EQ(h.stats.recoveries, 3);
  int reset = 0;
  for (TaskId id = 1; id <= 6; ++id) reset += h.state(id) == TaskState::ready;
  EXPECT_EQ(reset, 3);
  EXPECT_EQ(h.state(6), TaskState::ready) << "the walk starts at the reader";
}

TEST(ControlRecovery, LateConsumerRerunsProducerFromTheGate) {
  Harness h;
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  auto a = temp_file("a", 1);
  h.plane.submit(make_task(1, {}, {a}), "t");
  h.plane.schedule_pass();
  const WorkerId holder = h.plane.task(1)->worker;
  h.finish(1, holder, {{"a", 1000}});
  h.plane.worker_lost(holder, "worker_lost");
  EXPECT_EQ(h.stats.recoveries, 0) << "nobody reads a yet";

  h.plane.submit(make_task(2, {a}, {}), "t");
  h.plane.schedule_pass();
  EXPECT_EQ(h.stats.recoveries, 1);
  EXPECT_FALSE(h.fx.was_dispatched(2));
  h.plane.schedule_pass();
  EXPECT_EQ(std::count(h.fx.dispatched.begin(), h.fx.dispatched.end(), 1), 2)
      << "the producer runs again";
  h.expect_clean_audit();
}

// ------------------------------------------------------------------ redundancy

std::vector<std::string> replica_run(bool enabled) {
  ControlConfig config;
  config.redundancy.enabled = enabled;
  Harness h(config);
  h.plane.join_worker(make_worker("w0"));
  h.plane.join_worker(make_worker("w1"));
  auto a = temp_file("a", 1);
  h.plane.submit(make_task(1, {}, {a}, "w0"), "t");
  h.plane.schedule_pass();
  h.fx.log.clear();
  h.finish(1, "w0", {{"a", 1000}});
  EXPECT_TRUE(h.fx.orders_of(TransferClass::replica).empty())
      << "completion alone issues nothing";
  h.plane.schedule_pass();
  return h.fx.log;
}

TEST(ControlReplication, IssuedAtTheEndOfAPassOnlyWhenEnabled) {
  const auto on = replica_run(true);
  auto pass = std::find(on.begin(), on.end(), "event:sched_pass");
  auto copy = std::find(on.begin(), on.end(), "order:replica:a");
  ASSERT_NE(pass, on.end());
  ASSERT_NE(copy, on.end());
  EXPECT_LT(pass - on.begin(), copy - on.begin()) << "after the pass's sched_pass";

  const auto off = replica_run(false);
  EXPECT_EQ(std::find(off.begin(), off.end(), "order:replica:a"), off.end());
}

}  // namespace
}  // namespace vine::control
