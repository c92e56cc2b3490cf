// Runtime lock-rank checker tests. The note_* bookkeeping is compiled in
// every build type (only the Mutex wiring is debug-gated), so these run
// under relwithdebinfo, asan, and tsan alike.

#include "common/lock_rank.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace vine::lock_rank {
namespace {

// Capture violations instead of aborting.
struct Capture {
  static inline int count = 0;
  static inline Rank last_acquiring{};
  static inline Rank last_held{};
  static void handler(Rank acquiring, Rank held, const char*) {
    ++count;
    last_acquiring = acquiring;
    last_held = held;
  }
};

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Capture::count = 0;
    prev_ = set_violation_handler(&Capture::handler);
    // Drain anything a buggy prior test left behind.
    for (Rank r : held_ranks()) note_release(r);
  }
  void TearDown() override { set_violation_handler(prev_); }
  ViolationHandler prev_{};
};

TEST_F(LockRankTest, MonotoneAcquisitionPasses) {
  EXPECT_TRUE(note_acquire(Rank::manager_connections));
  EXPECT_TRUE(note_acquire(Rank::cache_store));
  EXPECT_TRUE(note_acquire(Rank::logging));
  EXPECT_EQ(held_ranks().size(), 3u);
  note_release(Rank::logging);
  note_release(Rank::cache_store);
  note_release(Rank::manager_connections);
  EXPECT_TRUE(held_ranks().empty());
  EXPECT_EQ(Capture::count, 0);
}

TEST_F(LockRankTest, InversionInvokesHandlerAndReturnsFalse) {
  EXPECT_TRUE(note_acquire(Rank::msg_queue));
  EXPECT_FALSE(note_acquire(Rank::cache_store));
  EXPECT_EQ(Capture::count, 1);
  EXPECT_EQ(Capture::last_acquiring, Rank::cache_store);
  EXPECT_EQ(Capture::last_held, Rank::msg_queue);
  // The rank is pushed even on violation so releases stay balanced.
  EXPECT_EQ(held_ranks().size(), 2u);
  note_release(Rank::cache_store);
  note_release(Rank::msg_queue);
  EXPECT_TRUE(held_ranks().empty());
}

TEST_F(LockRankTest, SameRankNestedAcquisitionIsAViolation) {
  EXPECT_TRUE(note_acquire(Rank::task_registry));
  EXPECT_FALSE(note_acquire(Rank::task_registry));
  EXPECT_EQ(Capture::count, 1);
  note_release(Rank::task_registry);
  note_release(Rank::task_registry);
}

TEST_F(LockRankTest, NonLifoReleaseIsTolerated) {
  EXPECT_TRUE(note_acquire(Rank::worker_peers));
  EXPECT_TRUE(note_acquire(Rank::trace_sink));
  // Release the outer first (scoped_lock-ish teardown order).
  note_release(Rank::worker_peers);
  EXPECT_EQ(held_ranks().size(), 1u);
  EXPECT_EQ(held_ranks()[0], Rank::trace_sink);
  note_release(Rank::trace_sink);
  EXPECT_EQ(Capture::count, 0);
}

TEST_F(LockRankTest, ReleasingUnheldRankReportsViolation) {
  note_release(Rank::uuid);
  EXPECT_EQ(Capture::count, 1);
}

TEST_F(LockRankTest, StacksAreThreadLocal) {
  EXPECT_TRUE(note_acquire(Rank::cache_store));
  std::thread other([] {
    // This thread holds nothing: acquiring an outer rank is fine here even
    // though the main thread holds an inner one.
    EXPECT_TRUE(note_acquire(Rank::manager_connections));
    EXPECT_EQ(held_ranks().size(), 1u);
    note_release(Rank::manager_connections);
  });
  other.join();
  note_release(Rank::cache_store);
  EXPECT_EQ(Capture::count, 0);
}

TEST_F(LockRankTest, RankNamesCoverTheEnum) {
  EXPECT_STREQ(rank_name(Rank::manager_connections), "manager_connections");
  EXPECT_STREQ(rank_name(Rank::msg_queue), "msg_queue");
  EXPECT_STREQ(rank_name(Rank::logging), "logging");
}

// End-to-end through vine::Mutex: debug builds wire note_* into lock();
// release builds compile the bookkeeping out, so the held stack only grows
// when VINE_LOCK_RANK_CHECKS is on.
TEST_F(LockRankTest, MutexWiringMatchesBuildType) {
  Mutex outer{Rank::cache_store};
  Mutex inner{Rank::logging};
  {
    MutexLock lo(outer);
#if VINE_LOCK_RANK_CHECKS
    EXPECT_EQ(held_ranks().size(), 1u);
#else
    EXPECT_TRUE(held_ranks().empty());
#endif
    MutexLock li(inner);
  }
  EXPECT_TRUE(held_ranks().empty());
  EXPECT_EQ(Capture::count, 0);
}

#if VINE_LOCK_RANK_CHECKS
TEST_F(LockRankTest, MutexInversionCaughtAtRuntime) {
  Mutex inner{Rank::msg_queue};
  Mutex outer{Rank::channel_fabric};
  {
    MutexLock li(inner);
    MutexLock lo(outer);  // channel_fabric (50) under msg_queue (110): bad
  }
  EXPECT_EQ(Capture::count, 1);
  EXPECT_EQ(Capture::last_acquiring, Rank::channel_fabric);
  EXPECT_EQ(Capture::last_held, Rank::msg_queue);
}
#endif

}  // namespace
}  // namespace vine::lock_rank
