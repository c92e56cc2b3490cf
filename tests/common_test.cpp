// Unit tests for src/common: Result, strings, units, rng, uuid, clock,
// work pool.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/intern.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "common/uuid.hpp"
#include "common/work_pool.hpp"

namespace vine {
namespace {

// ---------------------------------------------------------------- Result

Result<int> half(int x) {
  if (x % 2 != 0) return Error{Errc::invalid_argument, "odd"};
  return x / 2;
}

Result<int> quarter(int x) {
  VINE_TRY(int h, half(x));
  return half(h);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Error{Errc::not_found, "missing"};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
  EXPECT_EQ(r.error().message, "missing");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, TryMacroPropagates) {
  auto good = quarter(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 2);

  auto bad = quarter(6);  // 6/2=3 is odd at the second step
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::invalid_argument);
}

TEST(Result, StatusSuccessAndError) {
  Status ok = Status::success();
  EXPECT_TRUE(ok.ok());
  Status err = Error{Errc::io_error, "disk"};
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().to_string(), "io_error: disk");
}

TEST(Result, ErrcNamesAreStable) {
  EXPECT_STREQ(errc_name(Errc::ok), "ok");
  EXPECT_STREQ(errc_name(Errc::task_failed), "task_failed");
  EXPECT_STREQ(errc_name(Errc::resource_exhausted), "resource_exhausted");
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitBasic) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitNonempty) {
  EXPECT_EQ(split_nonempty("/a//b/", '/'), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_nonempty("///", '/').empty());
}

TEST(Strings, JoinRoundTrip) {
  std::vector<std::string> v{"x", "y", "z"};
  EXPECT_EQ(join(v, "/"), "x/y/z");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(split(join(v, ","), ','), v);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Affixes) {
  EXPECT_TRUE(starts_with("file://x", "file://"));
  EXPECT_FALSE(starts_with("fi", "file"));
  EXPECT_TRUE(ends_with("a.tar.gz", ".gz"));
  EXPECT_FALSE(ends_with("gz", ".gz"));
}

TEST(Strings, LowerAndEscape) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_EQ(escape_for_log("a\"b\n"), "\"a\\\"b\\x0a\"");
}

// ---------------------------------------------------------------- units

TEST(Units, ParseBytes) {
  EXPECT_EQ(parse_bytes("512").value(), 512);
  EXPECT_EQ(parse_bytes("200MB").value(), 200 * kMB);
  EXPECT_EQ(parse_bytes("1.4GB").value(), 1400 * kMB);
  EXPECT_EQ(parse_bytes("64KiB").value(), 64 * kKiB);
  EXPECT_EQ(parse_bytes(" 2 tb ").value(), 2 * kTB);
}

TEST(Units, ParseBytesErrors) {
  EXPECT_FALSE(parse_bytes("").ok());
  EXPECT_FALSE(parse_bytes("MB").ok());
  EXPECT_FALSE(parse_bytes("12XB").ok());
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(999), "999B");
  EXPECT_EQ(format_bytes(200 * kMB), "200.00MB");
  EXPECT_EQ(format_bytes(1400 * kMB), "1.40GB");
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformMeanIsRoughlyHalf) {
  Rng r(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng r(17);
  double sum = 0, sq = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// ---------------------------------------------------------------- uuid

TEST(Uuid, CanonicalShape) {
  auto u = generate_uuid();
  ASSERT_EQ(u.size(), 36u);
  EXPECT_EQ(u[8], '-');
  EXPECT_EQ(u[13], '-');
  EXPECT_EQ(u[14], '4');  // version nibble
  EXPECT_EQ(u[18], '-');
  EXPECT_EQ(u[23], '-');
}

TEST(Uuid, UniqueAcrossMany) {
  std::set<std::string> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(generate_uuid());
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(Uuid, TokenLengthAndAlphabet) {
  auto t = generate_token(12);
  ASSERT_EQ(t.size(), 12u);
  for (char c : t) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(Uuid, ReseedIsDeterministic) {
  reseed_uuid_generator(42);
  auto a = generate_uuid();
  reseed_uuid_generator(42);
  auto b = generate_uuid();
  EXPECT_EQ(a, b);
}

TEST(Uuid, ThreadSafety) {
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> results(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&results, t] {
      for (int i = 0; i < 200; ++i) results[t].push_back(generate_uuid());
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::string> all;
  for (auto& v : results) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 8u * 200u);
}

// ---------------------------------------------------------------- clock

TEST(Clock, ManualClockAdvances) {
  ManualClock c;
  EXPECT_EQ(c.now(), 0.0);
  c.advance_to(1.5);
  EXPECT_EQ(c.now(), 1.5);
  c.advance_by(0.5);
  EXPECT_EQ(c.now(), 2.0);
  c.advance_to(2.0);  // no-op, not backwards
  EXPECT_EQ(c.now(), 2.0);
}

// ---------------------------------------------------------------- intern

TEST(Intern, TokensAreDenseAndStable) {
  Interner in;
  EXPECT_EQ(in.intern("alpha"), 0u);
  EXPECT_EQ(in.intern("beta"), 1u);
  EXPECT_EQ(in.intern("alpha"), 0u);  // idempotent
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.name(0), "alpha");
  EXPECT_EQ(in.name(1), "beta");
}

TEST(Intern, LookupDoesNotIntern) {
  Interner in;
  EXPECT_EQ(in.lookup("ghost"), Interner::npos);
  EXPECT_EQ(in.size(), 0u);
  in.intern("real");
  EXPECT_EQ(in.lookup("real"), 0u);
  EXPECT_EQ(in.lookup("ghost"), Interner::npos);
}

TEST(Intern, NamesStayValidAcrossGrowth) {
  // The deque-backed storage must never invalidate previously returned
  // references as the table grows.
  Interner in;
  const std::string& first = in.name(in.intern("first"));
  for (int i = 0; i < 10000; ++i) in.intern("k" + std::to_string(i));
  EXPECT_EQ(first, "first");
  EXPECT_EQ(in.size(), 10001u);
}

TEST(Clock, SteadyClockMonotonic) {
  SteadyClock c;
  double a = c.now();
  double b = c.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

// ------------------------------------------------------------- WorkPool

TEST(WorkPool, GrowsOnlyToItsBusyJobsAndItsCap) {
  WorkPool uncapped;
  WorkPool capped(2);
  EXPECT_EQ(uncapped.threads(), 0u);  // a pool with no work holds no thread

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> ran{0};
  auto job = [&] {
    gate.wait();
    ++ran;
  };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(uncapped.submit(job));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(capped.submit(job));
  EXPECT_EQ(uncapped.threads(), 3u);  // one per job running at once
  EXPECT_EQ(capped.threads(), 2u);    // the rest wait in the queue

  release.set_value();
  uncapped.close();
  capped.close();  // queued jobs still run before the threads are joined
  EXPECT_EQ(ran.load(), 8);
  EXPECT_FALSE(capped.submit([] {}));
}

}  // namespace
}  // namespace vine
