// vine_e2e: the end-to-end benchmark driver (bench/e2e/README.md).
//
// One process runs one workload for a wall-clock budget as a series of
// repetitions ("reps"). Every rep builds a fresh cluster, pushes a fixed
// amount of work through the public API, checks each task's output, and
// tears the cluster down; end-to-end metrics are medians over reps. With
// --trace 1 the process alternates untraced and traced reps: the per-layer
// metrics come from the traced ones (an in-memory obs::TraceSink plus the
// spans recorded here around every call into a layer), and the ratio of
// the two makespan medians is the tracing overhead.
//
//   vine_e2e --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//            [--out DIR] [--smoke 0|1]
//
// Lines before the last read "metric <workload> <name> <value> <unit>";
// the last line is one JSON record. --out receives spans.jsonl and
// trace.jsonl from a traced run. --smoke 1 shrinks every rep to about 1/20
// of the benchmark's size; its numbers are not comparable with a real run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/taskvine.hpp"
#include "fsutil/fsutil.hpp"
#include "json/json.hpp"
#include "obs/trace_sink.hpp"
#include "wfgen/generator.hpp"
#include "worker/cache_store.hpp"
#include "worker/executor.hpp"

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using vine::Manager;
using vine::TaskReport;
using vine::TaskSpec;
using Time = std::chrono::steady_clock::time_point;

constexpr std::int64_t kMiB = 1 << 20;
constexpr std::size_t kNoopWindow = 16;  // noop_stream: tasks in flight
constexpr int kPipeDepth = 8;            // pipeline_writes: epigenomics depth
constexpr int kSetupSamples = 48;        // set-up-only reps per untraced run

/// Work per rep. kFull is frozen with BENCHMARK.json: changing it changes
/// every metric of a workload, so it is a benchmark change of its own.
/// kSmoke (--smoke 1) is about 1/20 of it, for the bench_e2e_smoke test.
struct Sizes {
  int noop_tasks;              // noop_stream: tasks per rep
  std::int64_t bcast_bytes;    // bcast_temp: the temp
  int bcast_consumers;
  int pipe_width;              // pipeline_writes: epigenomics width
  std::int64_t pipe_bytes;     // pipeline_writes: every file
  int probe_calls;             // per-layer probes: calls per probe
};
constexpr Sizes kFull{150, 4 * kMiB, 32, 16, kMiB / 2, 16};
constexpr Sizes kSmoke{8, kMiB, 8, 4, kMiB / 32, 2};

Time now() { return std::chrono::steady_clock::now(); }
double since(Time t0) {
  return std::chrono::duration<double>(now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}
/// The mean of the two middle values when there is an even number: with
/// two or four reps, the nearest rank would report the slower one.
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// ------------------------------------------------------------- spans ----

/// Bench-side spans around calls into each layer, kept in memory and
/// written at exit. A span's self time is its duration minus the part of
/// it that its child spans cover.
class SpanLog {
 public:
  int begin(const char* name, int parent) {
    spans_.push_back({name, since(t0_), 0, parent, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id, std::uint64_t task) {
    spans_[static_cast<std::size_t>(id)].end = since(t0_);
    spans_[static_cast<std::size_t>(id)].task = task;
  }
  void write(const fs::path& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      vine::json::Object o;
      o["id"] = static_cast<std::int64_t>(i);
      o["name"] = s.name;
      o["start"] = s.start;
      o["end"] = s.end;
      o["parent"] = s.parent;
      o["task"] = s.task;
      out << vine::json::Value(std::move(o)).dump() << '\n';
    }
  }

 private:
  struct Span {
    const char* name;
    double start, end;  // seconds since the log was created
    int parent;         // index of the enclosing span; -1 at the root
    std::uint64_t task;  // task the call was about; 0 when none
  };
  Time t0_ = now();
  std::vector<Span> spans_;
};

/// Times one call into a layer. Records nothing when the log is null, so
/// untraced reps pay only a branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log ? log->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_, task_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_task(std::uint64_t task) { task_ = task; }

 private:
  SpanLog* log_;
  int id_;
  std::uint64_t task_ = 0;
};

// --------------------------------------------------------------- reps ----

/// Counters of the control plane and catalog, read from ManagerStats.
struct Layer {
  double sched_passes = 0, tasks_scanned = 0, cache_hits = 0;
  double transfers_peer = 0, transfers_manager = 0, transfer_failures = 0;
  double bytes_peer = 0, bytes_manager = 0;
};

Layer layer_of(const vine::ManagerStats& s) {
  Layer l;
  l.sched_passes = static_cast<double>(s.sched_passes);
  l.tasks_scanned = static_cast<double>(s.tasks_scanned);
  l.cache_hits = static_cast<double>(s.cache_hits);
  l.transfers_peer = static_cast<double>(s.transfers_from_peers);
  l.transfers_manager = static_cast<double>(s.transfers_from_manager);
  l.transfer_failures = static_cast<double>(s.transfer_failures);
  l.bytes_peer = static_cast<double>(s.bytes_from_peers);
  l.bytes_manager = static_cast<double>(s.bytes_from_manager);
  return l;
}

/// What a traced rep's event stream says, beyond the stats counters.
struct TraceFacts {
  double events = 0, dispatches = 0;
  double peer_bytes = 0, peer_s = 0, manager_bytes = 0, manager_s = 0;
};

struct Rep {
  // Inputs.
  std::uint64_t seed = 0;
  const Sizes* size = &kFull;
  bool setup_only = false;  // time the set-up, then tear down without work
  fs::path root;  // storage for this rep, removed after it
  std::shared_ptr<vine::obs::TraceSink> sink;  // traced reps only
  SpanLog* spans = nullptr;                    // traced reps only
  int span = -1;                               // the rep's root span

  // Outputs.
  double setup_s = 0, makespan_s = 0, teardown_s = 0, peak_rss_mb = 0;
  std::int64_t attempted = 0, failed = 0;
  std::string error;  // first failure seen
  std::vector<double> latency_ms;
  std::vector<double> queue_ms, overhead_ms;  // per task, see README
  Layer layer;
  TraceFacts facts;

  void fail(const std::string& why, std::int64_t n = 1) {
    failed += n;
    if (error.empty()) error = why;
  }
};

/// A cluster on TCP: the manager listens on a loopback port and workers
/// serve peer transfers over TCP, as separate hosts would.
vine::LocalClusterConfig cluster_config(const Rep& rep, int workers, double cores) {
  vine::LocalClusterConfig cc;
  cc.workers = workers;
  cc.per_worker.cores = cores;
  cc.root_dir = rep.root;
  cc.trace = rep.sink;
  cc.manager.listen = "tcp";
  cc.tweak_worker = [](vine::WorkerConfig& wc) { wc.tcp_transfer_service = true; };
  return cc;
}

/// Null when the cluster does not come up; the rep's tasks then all fail.
std::unique_ptr<vine::LocalCluster> create_cluster(Rep& rep, vine::LocalClusterConfig cc,
                                                   std::size_t tasks) {
  ScopedSpan span(rep.spans, "core.create", rep.span);
  auto cluster = vine::LocalCluster::create(std::move(cc));
  if (!cluster.ok()) {
    rep.fail("cluster create: " + cluster.error().to_string(),
             static_cast<std::int64_t>(tasks));
    return nullptr;
  }
  return std::move(*cluster);
}

void teardown(Rep& rep, std::unique_ptr<vine::LocalCluster> cluster) {
  const Time t0 = now();
  {
    ScopedSpan span(rep.spans, "manager.end_workflow", rep.span);
    cluster->manager().end_workflow();
  }
  rep.layer = layer_of(cluster->manager().stats());
  {
    ScopedSpan span(rep.spans, "core.shutdown", rep.span);
    cluster->shutdown();
    cluster.reset();
  }
  rep.teardown_s = since(t0);
}

/// Submits `tasks` keeping at most `window` of them outstanding (0: submit
/// all before the first wait) and waits for every completion. check(i, r)
/// says whether task i's report carries the right output. The makespan runs
/// from the first submit() to the last wait() return. The caller has
/// counted the tasks as attempted.
void drive(Rep& rep, Manager& m, std::vector<TaskSpec> tasks, std::size_t window,
           const std::function<bool(std::size_t, const TaskReport&)>& check) {
  const std::size_t n = tasks.size();
  if (window == 0) window = n;
  struct Pending {
    std::size_t index;
    Time submitted;
  };
  std::map<vine::TaskId, Pending> pending;
  std::size_t next = 0, finished = 0;
  const Time t0 = now();
  while (finished < n) {
    while (next < n && pending.size() < window) {
      ScopedSpan span(rep.spans, "manager.submit", rep.span);
      auto id = m.submit(std::move(tasks[next]));
      if (!id.ok()) {
        rep.fail("submit: " + id.error().to_string());
        ++finished;
      } else {
        span.set_task(*id);
        pending.emplace(*id, Pending{next, now()});
      }
      ++next;
    }
    if (pending.empty()) continue;
    ScopedSpan span(rep.spans, "manager.wait", rep.span);
    auto r = m.wait(60s);
    const Time returned = now();
    const double manager_now = m.now();
    if (!r.ok()) {
      rep.fail("wait: " + r.error().to_string(),
               static_cast<std::int64_t>(n - finished));
      break;
    }
    span.set_task(r->id);
    auto it = pending.find(r->id);
    if (it == pending.end()) continue;
    ++finished;
    rep.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(returned - it->second.submitted)
            .count());
    // TaskReport's submitted/dispatched stamps are on the manager clock,
    // started/finished on the worker's: only same-clock differences count.
    rep.queue_ms.push_back((r->dispatched_at - r->submitted_at) * 1e3);
    rep.overhead_ms.push_back(
        ((manager_now - r->dispatched_at) - (r->finished_at - r->started_at)) * 1e3);
    if (!r->ok()) {
      rep.fail("task " + std::to_string(r->id) + " failed: " + r->error_message);
    } else if (!check(it->second.index, *r)) {
      rep.fail("task " + std::to_string(r->id) + " wrong output: " +
               r->output.substr(0, 80));
    }
    pending.erase(it);
  }
  rep.makespan_s = since(t0);
}

// ---------------------------------------------------------- workloads ----

/// noop_stream: 4 TCP workers x 2 cores, closed loop of 16 in flight, each
/// task a 1-core `echo` of a seeded token. Dispatch and process reaping
/// with no data movement.
void run_noop(Rep& rep) {
  const int n = rep.size->noop_tasks;
  vine::Rng rng(rep.seed);
  std::vector<TaskSpec> tasks;
  std::vector<std::string> want;
  for (int i = 0; i < n; ++i) {
    const std::string token = std::to_string(rng.below(1000000000));
    tasks.push_back(vine::TaskBuilder("echo " + token).cores(1).build());
    want.push_back(token + "\n");
  }
  rep.attempted += n;
  const Time t0 = now();
  auto cluster = create_cluster(rep, cluster_config(rep, 4, 2), n);
  if (!cluster) return;
  rep.setup_s = since(t0);
  if (!rep.setup_only) {
    drive(rep, cluster->manager(), std::move(tasks), kNoopWindow,
          [&](std::size_t i, const TaskReport& r) { return r.output == want[i]; });
  }
  teardown(rep, std::move(cluster));
}

/// bcast_temp: 8 TCP workers x 1 core. One producer writes a 4 MiB temp
/// of a seeded pattern; 32 consumers each count its bytes, so the temp
/// spreads worker to worker.
void run_bcast(Rep& rep) {
  const int consumers = rep.size->bcast_consumers;
  vine::Rng rng(rep.seed);
  const std::string pattern = "vine" + std::to_string(rng.below(1000000000));
  const std::string size = std::to_string(rep.size->bcast_bytes);
  rep.attempted += 1 + consumers;
  const Time t0 = now();
  auto cluster = create_cluster(rep, cluster_config(rep, 8, 1), 1 + consumers);
  if (!cluster) return;
  Manager& m = cluster->manager();
  vine::FileRef data = m.declare_temp();
  rep.setup_s = since(t0);

  std::vector<TaskSpec> tasks;
  tasks.push_back(vine::TaskBuilder("yes " + pattern + " | head -c " + size + " > out")
                      .output(data, "out")
                      .cores(1)
                      .build());
  for (int i = 0; i < consumers; ++i) {
    tasks.push_back(vine::TaskBuilder("wc -c < in").input(data, "in").cores(1).build());
  }
  if (!rep.setup_only) {
    drive(rep, m, std::move(tasks), 0, [&](std::size_t i, const TaskReport& r) {
      return i == 0 ? r.output.empty() : r.output == size + "\n";
    });
  }
  teardown(rep, std::move(cluster));
}

/// pipeline_writes: 4 TCP workers x 2 cores running a seeded wfgen
/// epigenomics DAG whole, every file 512 KiB. Each task writes its outputs
/// with `head -c` and prints the size of each input it was given.
void run_pipeline(Rep& rep) {
  const std::int64_t bytes = rep.size->pipe_bytes;
  const Time t0 = now();
  vine::wfgen::WorkflowInstance inst;
  {
    ScopedSpan span(rep.spans, "wfgen.generate", rep.span);
    vine::wfgen::WorkloadSpec spec;
    spec.shape = vine::wfgen::Shape::epigenomics;
    spec.seed = rep.seed;
    spec.width = rep.size->pipe_width;
    spec.depth = kPipeDepth;
    spec.input_bytes = vine::wfgen::Dist::constant(static_cast<double>(bytes));
    spec.output_bytes = vine::wfgen::Dist::constant(static_cast<double>(bytes));
    inst = vine::wfgen::generate(spec);
  }
  rep.attempted += static_cast<std::int64_t>(inst.tasks.size());
  auto cluster = create_cluster(rep, cluster_config(rep, 4, 2), inst.tasks.size());
  if (!cluster) return;
  Manager& m = cluster->manager();
  std::map<std::string, vine::FileRef> files;
  {
    ScopedSpan span(rep.spans, "manager.declare", rep.span);
    for (const auto& t : inst.tasks) {
      for (const auto& f : t.outputs) files.emplace(f.name, m.declare_temp());
    }
    for (const auto& t : inst.tasks) {
      for (const auto& f : t.inputs) {
        if (files.count(f.name)) continue;
        // Buffers are content-addressed: the name keeps inputs distinct.
        std::string content = f.name + ":";
        content.resize(static_cast<std::size_t>(bytes), 'x');
        files.emplace(f.name, m.declare_buffer(std::move(content)));
      }
    }
  }
  rep.setup_s = since(t0);

  const std::string size = std::to_string(bytes);
  std::vector<TaskSpec> tasks;
  std::vector<std::string> want;
  for (const auto& t : inst.tasks) {
    std::string command, expected;
    for (std::size_t i = 0; i < t.inputs.size(); ++i) {
      command += "wc -c < i" + std::to_string(i) + " && ";
      expected += size + "\n";
    }
    for (std::size_t o = 0; o < t.outputs.size(); ++o) {
      command += "head -c " + size + " /dev/zero > o" + std::to_string(o) + " && ";
    }
    command += "true";
    vine::TaskBuilder b(command);
    b.cores(1);
    for (std::size_t i = 0; i < t.inputs.size(); ++i) {
      b.input(files.at(t.inputs[i].name), "i" + std::to_string(i));
    }
    for (std::size_t o = 0; o < t.outputs.size(); ++o) {
      b.output(files.at(t.outputs[o].name), "o" + std::to_string(o));
    }
    tasks.push_back(b.build());
    want.push_back(std::move(expected));
  }
  if (!rep.setup_only) {
    drive(rep, m, std::move(tasks), 0,
          [&](std::size_t i, const TaskReport& r) { return r.output == want[i]; });
  }
  teardown(rep, std::move(cluster));
}

struct Workload {
  const char* name;
  double tail;  // percentile reported as task_latency_tail_ms
  void (*run)(Rep&);
};

// The tail percentile is the highest with at least ten samples beyond it
// in a run of BENCHMARK.json's length (README.md lists the sample counts).
constexpr Workload kWorkloads[] = {
    {"noop_stream", 0.99, run_noop},
    {"bcast_temp", 0.95, run_bcast},
    {"pipeline_writes", 0.95, run_pipeline},
};

// ------------------------------------------------------ traced facts ----

/// Folds a traced rep's event stream: dispatch count, and transfer time by
/// source (begin/end pairs joined on xfer, on the emitter's clock).
void read_trace(Rep& rep) {
  const auto events = rep.sink->events();
  rep.facts.events = static_cast<double>(rep.sink->event_count());
  std::map<std::string, double> begun;
  for (const auto& ev : events) {
    using vine::obs::EventKind;
    if (ev.kind == EventKind::transfer_begin) {
      begun[ev.xfer] = ev.t;
    } else if (ev.kind == EventKind::transfer_end && ev.ok) {
      auto it = begun.find(ev.xfer);
      if (it == begun.end()) continue;
      const double dt = ev.t - it->second;
      const auto bytes = static_cast<double>(std::max<std::int64_t>(0, ev.bytes));
      if (ev.source == "worker") {
        rep.facts.peer_s += dt;
        rep.facts.peer_bytes += bytes;
      } else if (ev.source == "manager") {
        rep.facts.manager_s += dt;
        rep.facts.manager_bytes += bytes;
      }
      begun.erase(it);
    } else if (ev.kind == EventKind::task_state && ev.state == "dispatched") {
      rep.facts.dispatches += 1;
    }
  }
}

void write_trace(const Rep& rep, const fs::path& path) {
  std::ofstream out(path);
  for (const auto& ev : rep.sink->events()) out << vine::obs::event_to_jsonl(ev) << '\n';
}

// --------------------------------------------------------- layer probes ----

/// Median wall time of Executor::execute running `true` in a private cache
/// (default ExecutorConfig, as a caller outside a Worker gets it).
double probe_execute(const fs::path& dir, Rep& rep) {
  vine::CacheStore cache(dir / "cache");
  vine::Executor exec(vine::ExecutorConfig{.sandbox_root = dir / "sandboxes",
                                           .worker_id = "probe"},
                      cache);
  std::vector<double> ms;
  for (int i = 0; i < rep.size->probe_calls; ++i) {
    vine::proto::WireTask task;
    task.id = static_cast<vine::TaskId>(i + 1);
    task.command = "true";
    ++rep.attempted;
    const Time t0 = now();
    const auto out = exec.execute(task);
    ms.push_back(since(t0) * 1e3);
    if (!out.ok) rep.fail("probe execute: " + out.error);
  }
  return median(ms);
}

/// Median wall time of CacheStore::adopt taking in a pipeline_writes-sized
/// task output.
double probe_adopt(const fs::path& dir, Rep& rep) {
  vine::CacheStore cache(dir / "cache");
  const std::string blob(static_cast<std::size_t>(rep.size->pipe_bytes), 'a');
  std::vector<double> ms;
  for (int i = 0; i < rep.size->probe_calls; ++i) {
    const fs::path src = dir / ("out" + std::to_string(i));
    ++rep.attempted;
    if (auto st = vine::write_file_atomic(src, blob); !st.ok()) {
      rep.fail("probe write: " + st.error().to_string());
      continue;
    }
    const Time t0 = now();
    const auto st = cache.adopt("obj" + std::to_string(i), src, vine::CacheLevel::workflow);
    ms.push_back(since(t0) * 1e3);
    if (!st.ok()) rep.fail("probe adopt: " + st.error().to_string());
  }
  return median(ms);
}

// ---------------------------------------------------------------- main ----

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required: BENCHMARK.json's run_seconds
  bool trace = false;
  const Sizes* size = &kFull;
  fs::path work, out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(value.c_str());
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--smoke") a.size = value == "1" ? &kSmoke : &kFull;
    else if (key == "--work") a.work = value;
    else if (key == "--out") a.out = value;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.work.empty() && a.seconds > 0;
}

std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  std::uint64_t state = seed * 1000003u + static_cast<std::uint64_t>(rep);
  return vine::splitmix64(state);
}

/// Resets the process's peak resident set to its current size (Linux
/// clear_refs), so that the next peak_rss_mib() reads one rep's peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: vine_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work DIR [--out DIR] [--smoke 0|1]\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (!wl) {
    std::fprintf(stderr, "vine_e2e: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Shutdown races (a heartbeat to a manager already gone) log warnings
  // that say nothing about the run.
  vine::set_log_level(vine::LogLevel::error);
  std::error_code ec;
  // Task sandboxes are entered by chdir, so a relative root would not
  // resolve from inside them.
  args.work = fs::absolute(args.work);
  if (!args.out.empty()) args.out = fs::absolute(args.out);
  fs::create_directories(args.work, ec);

  // Reps run until the next one would end past the budget, judged by the
  // longest so far; a traced run alternates untraced and traced reps and
  // always has one of each. The first rep is a warm-up whose outputs are
  // checked but whose times are dropped: the first rep of a process ran up
  // to 25% slower than the rest.
  SpanLog spans;
  std::vector<Rep> plain, traced;
  std::int64_t attempted = 0, failed = 0;
  std::string error;
  const Time start = now();

  // Set-up takes milliseconds and its time follows the host's load from
  // second to second, so an untraced run also times set-ups alone, spread
  // over its length: before each measured rep, and after the last, these
  // set-up-only reps catch up with the share of kSetupSamples that the run
  // will have covered, using at most a twenty-fifth of the budget in all.
  // setup_s is the median of them and of the measured reps' set-ups. Each
  // counts as one attempted operation.
  std::vector<double> setups;
  double setup_only_s = 0;
  auto time_setups = [&](double share) {
    const double due = kSetupSamples * std::min(1.0, share);
    while (!args.trace && static_cast<double>(setups.size()) < due &&
           setup_only_s < args.seconds / 25) {
      Rep rep;
      rep.seed = rep_seed(args.seed, static_cast<int>(setups.size()));
      rep.size = args.size;
      rep.setup_only = true;
      vine::TempDir root(args.work, "setup");
      rep.root = root.path();
      const Time t0 = now();
      wl->run(rep);
      setup_only_s += since(t0);
      ++attempted;
      if (rep.failed > 0) {
        ++failed;
        if (error.empty()) error = rep.error;
      }
      setups.push_back(rep.setup_s);
    }
  };

  const int min_reps = args.trace ? 3 : 2;
  double longest = 0;
  for (int i = 0;; ++i) {
    if (i >= min_reps && since(start) + longest > args.seconds) break;
    time_setups((since(start) + longest) / args.seconds);
    Rep rep;
    rep.seed = rep_seed(args.seed, i);
    rep.size = args.size;
    const bool warm_up = i == 0;
    const bool traced_rep = args.trace && i % 2 == 0 && !warm_up;
    vine::TempDir root(args.work, "rep");
    rep.root = root.path();
    if (traced_rep) {
      rep.sink = std::make_shared<vine::obs::TraceSink>(
          vine::obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});
      rep.spans = &spans;
      rep.span = spans.begin("rep", -1);
    }
    reset_peak_rss();
    const Time t0 = now();
    wl->run(rep);
    longest = std::max(longest, since(t0));
    rep.peak_rss_mb = peak_rss_mib();
    if (traced_rep) {
      spans.end(rep.span, 0);
      read_trace(rep);
      if (!args.out.empty()) {
        fs::create_directories(args.out, ec);
        write_trace(rep, args.out / "trace.jsonl");
      }
      rep.sink.reset();
    }
    attempted += rep.attempted;
    failed += rep.failed;
    if (error.empty()) error = rep.error;
    if (!warm_up) (traced_rep ? traced : plain).push_back(std::move(rep));
  }
  time_setups(1);

  // Metric name -> (value, unit), in BENCHMARK.json order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto put = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  auto pooled = [](const std::vector<Rep>& reps,
                   std::vector<double> Rep::*field) {
    std::vector<double> all;
    for (const Rep& r : reps) {
      all.insert(all.end(), (r.*field).begin(), (r.*field).end());
    }
    return all;
  };
  auto med = [](const std::vector<Rep>& reps, auto get) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(get(r));
    return median(std::move(v));
  };
  const std::vector<double> latency = pooled(plain, &Rep::latency_ms);

  if (!args.trace) {
    put("makespan_s", med(plain, [](const Rep& r) { return r.makespan_s; }), "s");
    put("tasks_per_s", med(plain, [](const Rep& r) {
          return r.makespan_s > 0
                     ? static_cast<double>(r.attempted - r.failed) / r.makespan_s
                     : 0;
        }), "tasks/s");
    put("task_latency_p50_ms", percentile(latency, 0.5), "ms");
    put("task_latency_tail_ms", percentile(latency, wl->tail), "ms");
    for (const Rep& r : plain) setups.push_back(r.setup_s);
    put("setup_s", median(std::move(setups)), "s");
    // A rep's peak moves in whole-blob steps with the transfers in flight,
    // so the median flips between steps where the mean does not.
    double rss = 0;
    for (const Rep& r : plain) rss += r.peak_rss_mb / static_cast<double>(plain.size());
    put("peak_rss_mb", rss, "MiB");
  } else {
    const std::vector<double> queue = pooled(traced, &Rep::queue_ms);
    const std::vector<double> overhead = pooled(traced, &Rep::overhead_ms);
    double scanned = 0, dispatches = 0, peer_b = 0, peer_s = 0, mgr_b = 0, mgr_s = 0;
    for (const Rep& r : traced) {
      scanned += r.layer.tasks_scanned;
      dispatches += r.facts.dispatches;
      peer_b += r.facts.peer_bytes;
      peer_s += r.facts.peer_s;
      mgr_b += r.facts.manager_bytes;
      mgr_s += r.facts.manager_s;
    }
    const auto mib = static_cast<double>(kMiB);
    put("core.teardown_s", med(traced, [](const Rep& r) { return r.teardown_s; }), "s");
    put("manager.queue_ms_p50", percentile(queue, 0.5), "ms");
    put("manager.queue_ms_p99", percentile(queue, 0.99), "ms");
    put("manager.overhead_ms_p50", percentile(overhead, 0.5), "ms");
    put("manager.overhead_ms_p99", percentile(overhead, 0.99), "ms");
    put("sched.passes", med(traced, [](const Rep& r) { return r.layer.sched_passes; }),
        "count");
    put("sched.scans_per_dispatch", dispatches > 0 ? scanned / dispatches : 0, "ratio");
    put("catalog.cache_hits", med(traced, [](const Rep& r) { return r.layer.cache_hits; }),
        "count");
    put("catalog.transfers_peer",
        med(traced, [](const Rep& r) { return r.layer.transfers_peer; }), "count");
    put("catalog.transfers_manager",
        med(traced, [](const Rep& r) { return r.layer.transfers_manager; }), "count");
    put("catalog.transfer_failures",
        med(traced, [](const Rep& r) { return r.layer.transfer_failures; }), "count");
    put("catalog.peer_mb",
        med(traced, [&](const Rep& r) { return r.layer.bytes_peer / mib; }), "MiB");
    put("catalog.manager_mb",
        med(traced, [&](const Rep& r) { return r.layer.bytes_manager / mib; }), "MiB");
    put("net.peer_MBps", peer_s > 0 ? peer_b / mib / peer_s : 0, "MiB/s");
    put("net.manager_MBps", mgr_s > 0 ? mgr_b / mib / mgr_s : 0, "MiB/s");
    Rep probes;
    probes.size = args.size;
    {
      vine::TempDir dir(args.work, "probe");
      put("worker.execute_ms_p50", probe_execute(dir.path() / "exec", probes), "ms");
      put("cache.adopt_ms_p50", probe_adopt(dir.path() / "adopt", probes), "ms");
    }
    attempted += probes.attempted;
    failed += probes.failed;
    if (error.empty()) error = probes.error;
    put("obs.events", med(traced, [](const Rep& r) { return r.facts.events; }), "count");
    const double untraced = med(plain, [](const Rep& r) { return r.makespan_s; });
    const double with_trace = med(traced, [](const Rep& r) { return r.makespan_s; });
    put("obs.trace_overhead_frac", untraced > 0 ? with_trace / untraced - 1 : 0, "ratio");
    if (!args.out.empty()) spans.write(args.out / "spans.jsonl");
  }

  vine::json::Object values;
  for (const auto& [name, vu] : metrics) {
    std::printf("metric %s %s %.17g %s\n", wl->name, name.c_str(), vu.first,
                vu.second.c_str());
    vine::json::Object m;
    m["value"] = vu.first;
    m["unit"] = vu.second;
    values[name] = vine::json::Value(std::move(m));
  }
  vine::json::Object record;
  record["workload"] = wl->name;
  record["seed"] = args.seed;
  record["seconds"] = args.seconds;
  record["trace"] = args.trace;
  record["reps"] = static_cast<std::int64_t>(args.trace ? traced.size() : plain.size());
  record["tail_percentile"] = wl->tail;
  record["latency_samples"] = static_cast<std::int64_t>(latency.size());
  vine::json::Array rep_makespans;
  for (const Rep& r : args.trace ? traced : plain) rep_makespans.emplace_back(r.makespan_s);
  record["rep_makespan_s"] = vine::json::Value(std::move(rep_makespans));
  record["correct"] = failed == 0;
  record["attempted"] = attempted;
  record["failed"] = failed;
  record["error"] = error;
  record["build_type"] = VINE_E2E_BUILD_TYPE;
  record["compiler"] = __VERSION__;
  record["metrics"] = vine::json::Value(std::move(values));
  std::printf("%s\n", vine::json::Value(std::move(record)).dump().c_str());
  return 0;
}
