// DagView: a per-pass snapshot of the waiting frontier of the task graph,
// built by the scheduling host (control::ControlPlane) at the top of each
// scheduling pass and consumed by the lookahead policy in vine::Scheduler.
//
// "Waiting" tasks are submitted tasks that cannot be placed yet because at
// least one temp input has no materialized replica (the producibility gate
// in schedule_pass). The view exposes, for each waiting task:
//   * its dependency list with byte weights and a pending flag per input,
//   * its missing-producer count (a steps-to-ready proxy: the number of
//     inputs whose producing task has not completed),
// plus two inverted indexes:
//   * consumers_of(file): which waiting tasks consume a given file — the
//     consumer-gravity term walks this from a ready task's outputs,
//   * expected_at(file): the span slot of the worker expected to hold a
//     not-yet-materialized output (its producer's placement). Seeded from
//     already-running producers at build time and updated by the host after
//     each within-pass placement, so sibling producers of a common consumer
//     converge onto the same pile instead of scattering.
//
// File names are interned into dense per-view tokens at add_dep time, so
// the per-pick gravity walk (which revisits a consumer's dep list once per
// sibling producer pick — O(fan^2) visits per fan-in group per pass) costs
// array loads, not string-keyed map lookups. The hosts speak strings at
// the once-per-pass build boundary; the scheduler speaks tokens.
//
// The view is rebuilt per pass (it must see fresh placements), so it is
// designed for cheap refill: clear() keeps node capacity and the interned
// name universe (bounded by the workflow's declared file count).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/intern.hpp"
#include "files/file_decl.hpp"

namespace vine {

class DagView {
 public:
  /// Sentinel for expected_at: no placed producer is known for the file.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Dep {
    std::uint32_t name = 0;  ///< per-view name token (see name_of / name_token)
    std::int64_t bytes = 1;  ///< best known size (size_hint / replica size / 1)
    bool pending = false;    ///< producer has not completed yet
  };

  struct Waiting {
    TaskId id = 0;
    int missing = 0;  ///< pending-producer inputs (0 would mean "ready")
    std::uint32_t first_dep = 0;
    std::uint32_t dep_count = 0;
  };

  void clear();

  /// Register a waiting task; returns its dense index. All of a task's
  /// deps must be added before the next add_waiting call.
  std::uint32_t add_waiting(TaskId id);

  /// Register one dependency of waiting task `idx`. `pending` inputs bump
  /// the task's missing count and are credited via expected_at; present
  /// inputs are credited via the replica table's holder spans.
  void add_dep(std::uint32_t idx, std::string_view cache_name,
               std::int64_t bytes, bool pending);

  std::size_t size() const { return waiting_.size(); }
  std::size_t dep_total() const { return deps_.size(); }
  const Waiting& waiting(std::uint32_t idx) const { return waiting_[idx]; }
  std::span<const Dep> deps(std::uint32_t idx) const {
    const Waiting& w = waiting_[idx];
    return {deps_.data() + w.first_dep, w.dep_count};
  }

  /// Token for a file name, or Interner::npos when no dep or expected
  /// placement ever mentioned it this workflow.
  std::uint32_t name_token(std::string_view cache_name) const {
    return names_.lookup(cache_name);
  }
  const std::string& name_of(std::uint32_t name) const {
    return names_.name(name);
  }

  /// Waiting-task indices consuming the file, in registration order
  /// (ascending task id, the order the host walks the ready set).
  std::span<const std::uint32_t> consumers_of(std::uint32_t name) const {
    if (name >= consumers_.size()) return {};
    return {consumers_[name].data(), consumers_[name].size()};
  }
  std::span<const std::uint32_t> consumers_of(std::string_view cache_name) const {
    const std::uint32_t name = names_.lookup(cache_name);
    return name == Interner::npos ? std::span<const std::uint32_t>{}
                                  : consumers_of(name);
  }

  /// Record/overwrite the expected location of a not-yet-materialized file:
  /// the span slot of the worker its producer was placed on.
  void note_expected(std::string_view cache_name, std::uint32_t slot);
  std::uint32_t expected_at(std::uint32_t name) const {
    return name < expected_.size() ? expected_[name] : kNoSlot;
  }
  std::uint32_t expected_at(std::string_view cache_name) const {
    const std::uint32_t name = names_.lookup(cache_name);
    return name == Interner::npos ? kNoSlot : expected_at(name);
  }

 private:
  /// Intern `cache_name` and size the token-indexed columns to cover it.
  std::uint32_t intern(std::string_view cache_name);

  Interner names_;  // survives clear(): tokens are stable per workflow
  std::vector<Waiting> waiting_;
  std::vector<Dep> deps_;
  std::vector<std::vector<std::uint32_t>> consumers_;  // by name token
  std::vector<std::uint32_t> expected_;                // by name token
};

}  // namespace vine
